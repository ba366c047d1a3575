package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		MetricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the metric
// tables the harness reports from in step, and checks the naming rules.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	for _, p := range bf.Paths {
		if info, err := os.Stat("../" + p); err != nil || !info.IsDir() || strings.Contains(p, "..") || strings.HasPrefix(p, "/") {
			t.Errorf("path %q is not a directory of the repository", p)
		}
	}
	if len(bf.Command) < 2 || bf.Command[1] != bf.Paths[0]+"/run.sh" {
		t.Errorf("command %q does not run %s/run.sh", bf.Command, bf.Paths[0])
	}

	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the harness", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in the file, %q in the harness", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the harness", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		unique(m.Name)
		if err := validMetric(m.MetricDef); err != nil {
			t.Error(err)
		}
		if m.MetricDef != endToEnd[i] {
			t.Errorf("end-to-end %d: file %+v, harness %+v", i, m.MetricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if len(bf.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics in the file, %d in the harness", len(bf.PerLayer), len(layers))
	}
	for i, m := range bf.PerLayer {
		unique(m.Name)
		if err := validMetric(m); err != nil {
			t.Error(err)
		}
		if m != layers[i].MetricDef {
			t.Errorf("per-layer %d: file %+v, harness %+v", i, m, layers[i].MetricDef)
		}
		if layers[i].Moves == "" {
			t.Errorf("%s: no predicted end-to-end effect", m.Name)
		}
	}
}

func TestMetricNameRules(t *testing.T) {
	for _, ok := range []MetricDef{{"p50_ms", "ms", "lower"}, {"serve.replica_ms.vec", "1/s", "higher"}, {"9a-b", "%", "lower"}} {
		if err := validMetric(ok); err != nil {
			t.Errorf("%+v rejected: %v", ok, err)
		}
	}
	for _, bad := range []MetricDef{
		{"_lead", "ms", "lower"},
		{"has space", "ms", "lower"},
		{strings.Repeat("a", 65), "ms", "lower"},
		{"x", "", "lower"},
		{"x", "seventeen-chars-x", "lower"},
		{"x", "ms", "faster"},
	} {
		if validMetric(bad) == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: the functions must sort
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		label string
		value float64
	}{
		{1, "max", 1},
		{15, "max", 15},    // p50 would leave only 7 above
		{20, "p50", 10},    // rank 10 leaves exactly 10 above
		{100, "p90", 90},   // p95 would leave 5
		{999, "p95", 950},  // p99 (rank 990) would leave 9
		{1000, "p99", 990}, // rank 990 leaves exactly 10
		{20000, "p99.9", 19980},
	} {
		q := Tail(seq(tc.n))
		if q.Label != tc.label || q.Value != tc.value || q.N != tc.n {
			t.Errorf("Tail of 1..%d = %+v, want %s = %v", tc.n, q, tc.label, tc.value)
		}
	}
	if q := TailAt(seq(20000), 99); q.Label != "p99" || q.Value != 19800 {
		t.Errorf("TailAt(99) of 1..20000 = %+v, want p99 = 19800", q)
	}
	if q := TailAt(seq(500), 99); q.Label != "p95" || q.Value != 475 {
		t.Errorf("TailAt(99) of 1..500 = %+v, want the ladder's p95 = 475", q)
	}
	// Nearest rank reports a real sample, never a value between two.
	if m := Median([]float64{1, 2, 3, 100}); m.Value != 2 || m.N != 4 {
		t.Errorf("Median = %+v, want the sample 2", m)
	}
	if m := Median([]float64{7}); m.Value != 7 {
		t.Errorf("Median of one sample = %v", m.Value)
	}
	if q := Tail(nil); q.N != 0 || q.Value != 0 {
		t.Errorf("Tail of nothing = %+v", q)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 3 * ms, End: 6 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 8 * ms, End: 12 * ms}, // runs past the parent
	}
	ss := NewSpanSet(spans)
	if got := ss.SelfTime(spans[0]); got != 3*time.Millisecond {
		t.Errorf("self time %v, want 3ms", got)
	}
	if got := ss.SelfMicros("a"); len(got) != 1 || got[0] != 3000 {
		t.Errorf("leaf self time %v µs, want 3000", got)
	}
}

func TestRequestID(t *testing.T) {
	for body, want := range map[string]string{
		`{"id":"load-vec-0-7","vectors":[["a"]]}`: "load-vec-0-7",
		`{"source":"int main(){}"}`:               "",
		`{"id":"unterminated`:                     "",
	} {
		if got := requestID([]byte(body)); got != want {
			t.Errorf("requestID(%s) = %q, want %q", body, got, want)
		}
	}
}

// withWorkload swaps in a fake workload and runs the command in a
// temporary directory.
func withWorkload(t *testing.T, fn func(b *Bench) (*Outcome, error), args ...string) (int, string) {
	t.Helper()
	saved := workloads
	workloads = []Workload{{"fake", fn}}
	t.Cleanup(func() { workloads = saved })
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"--workload", "fake", "--seed", "3", "--seconds", "1"}, args...), &stdout, &stderr)
	return code, stdout.String()
}

func lastLine(t *testing.T, out string) (map[string]json.RawMessage, Result) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := []byte(lines[len(lines)-1])
	var keys map[string]json.RawMessage
	var res Result
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("last line is not JSON: %s", last)
	}
	if err := json.Unmarshal(last, &res); err != nil {
		t.Fatal(err)
	}
	return keys, res
}

func fakeOutcome(b *Bench) (*Outcome, error) {
	o := newOutcome()
	o.Attempted = 4
	for _, m := range endToEnd {
		o.E2E[m.Name] = 1.5
	}
	o.Layers["minic.parse_us"] = 2
	return o, nil
}

func TestResultShape(t *testing.T) {
	code, out := withWorkload(t, fakeOutcome, "--trace", "0")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.HasPrefix(out, "env {") || !strings.Contains(out, `"nproc"`) || !strings.Contains(out, `"seed":"3"`) {
		t.Errorf("no environment stamp:\n%s", out)
	}
	keys, res := lastLine(t, out)
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result keys %v", keys)
	}
	if !res.Correct || res.Attempted != 4 || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result %+v", res)
	}
	for _, m := range endToEnd {
		if v := res.Metrics[m.Name]; v.Unit != m.Unit || (m.Name != "peak_heap_mb" && v.Value != 1.5) {
			t.Errorf("%s = %+v", m.Name, v)
		}
		if !strings.Contains(out, "metric "+m.Name+" ") {
			t.Errorf("%s not printed", m.Name)
		}
	}
}

func TestTracedResultHasEveryLayer(t *testing.T) {
	code, out := withWorkload(t, fakeOutcome, "--trace", "1")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	_, res := lastLine(t, out)
	if len(res.Metrics) != len(layers) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(layers))
	}
	if v := res.Metrics["minic.parse_us"]; v.Value != 2 || v.Unit != "us" {
		t.Errorf("minic.parse_us = %+v", v)
	}
}

func TestFailedCheckFailsTheRun(t *testing.T) {
	code, out := withWorkload(t, func(b *Bench) (*Outcome, error) {
		o, _ := fakeOutcome(b)
		o.Failed = 1
		o.Fail("answer differs")
		return o, nil
	})
	if code == 0 {
		t.Fatal("a failed output check exited 0")
	}
	_, res := lastLine(t, out)
	if res.Correct || res.Failed != 1 {
		t.Errorf("result %+v", res)
	}
}

func TestMissingMetricPrintsNoResult(t *testing.T) {
	code, out := withWorkload(t, func(b *Bench) (*Outcome, error) {
		o := newOutcome()
		o.Attempted = 1
		return o, nil
	})
	if code == 0 || strings.Contains(out, `"correct"`) {
		t.Fatalf("exit %d with output:\n%s", code, out)
	}
}
