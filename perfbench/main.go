// Command perfbench is the repository's benchmark: one process runs one
// named workload, prints every metric with its unit, checks the program's
// outputs, and ends with a one-line JSON result.
//
//	bash perfbench/run.sh --workload analyze --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it instead times the benchmark's own calls into each
// layer, writes the spans under .bench_build/trace/, and reports the
// per-layer metrics listed in metrics.go.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workDir holds everything a run writes; .gitignore names it.
const workDir = ".bench_build"

// Workload runs one named workload.
type Workload struct {
	Name string
	Run  func(b *Bench) (*Outcome, error)
}

var workloads = []Workload{
	{"analyze", runAnalyze},
	{"loo-train", runLOO},
	{"optimize", runOptimize},
	{"serve-routed", runServe},
}

// Bench is what a workload gets from the harness.
type Bench struct {
	Seed    int64
	Seconds time.Duration
	Dir     string  // scratch directory inside the checkout
	Tr      *Tracer // nil unless --trace 1
	Workers int     // at most nproc
}

// Outcome is what a workload measured and checked.
type Outcome struct {
	Attempted, Failed int64
	Checks            []string           // failed output checks
	E2E               map[string]float64 // end-to-end metrics (untraced run)
	Layers            map[string]float64 // per-layer metrics (traced run)
	Lines             []string           // workload-specific metrics, printed
}

func newOutcome() *Outcome {
	return &Outcome{E2E: map[string]float64{}, Layers: map[string]float64{}}
}

// Fail records a failed output check.
func (o *Outcome) Fail(format string, args ...any) {
	if len(o.Checks) < 20 {
		o.Checks = append(o.Checks, fmt.Sprintf(format, args...))
	}
}

// Line prints a workload-specific metric with its unit and, for a
// percentile, its rank and sample count.
func (o *Outcome) Line(name string, v float64, unit, note string) {
	s := fmt.Sprintf("%s %s %s", name, strconv.FormatFloat(v, 'g', 6, 64), unit)
	if note != "" {
		s += " (" + note + ")"
	}
	o.Lines = append(o.Lines, s)
}

// Quantile prints a percentile line.
func (o *Outcome) Quantile(name string, q Quantile) {
	o.Line(name, q.Value, "ms", q.String())
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]MetricValue `json:"metrics"`
}

// MetricValue is one reported metric.
type MetricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "1 times each layer and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *Workload
	for i := range workloads {
		if workloads[i].Name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &Bench{
		Seed:    *seed,
		Seconds: time.Duration(*seconds) * time.Second,
		Dir:     dir,
		Workers: min(runtime.GOMAXPROCS(0), runtime.NumCPU()),
	}
	if *trace == 1 {
		b.Tr = NewTracer()
	}
	env := stampEnv(wl.Name, *seed, *trace)
	envJSON, _ := json.Marshal(env) // a map of strings always encodes
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	heap := watchHeap()
	out, err := wl.Run(b)
	peakHeap := heap.stop()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.Name, err)
		return 1
	}
	out.E2E["peak_heap_mb"] = peakHeap
	out.Line("peak_rss_mb", peakRSSMB(), "MB", "resident high-water mark")

	res := Result{
		Correct:   len(out.Checks) == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   map[string]MetricValue{},
	}
	if b.Tr != nil {
		path := filepath.Join(workDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", wl.Name, *seed))
		err := os.MkdirAll(filepath.Dir(path), 0o755)
		if err == nil {
			err = writeSpans(path, b.Tr.Spans())
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %s\n", path)
		for _, l := range layers {
			res.Metrics[l.Name] = MetricValue{out.Layers[l.Name], l.Unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := out.E2E[m.Name]
			if !ok {
				fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", wl.Name, m.Name)
				return 1
			}
			res.Metrics[m.Name] = MetricValue{v, m.Unit}
		}
	}

	w := bufio.NewWriter(stdout)
	for _, l := range out.Lines {
		fmt.Fprintf(w, "metric %s\n", l)
	}
	fmt.Fprintf(w, "metric error_rate %g ratio (failed %d of %d)\n",
		ratio(float64(out.Failed), float64(out.Attempted)), out.Failed, out.Attempted)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "metric %s %s %s\n", k, strconv.FormatFloat(res.Metrics[k].Value, 'g', 6, 64), res.Metrics[k].Unit)
	}
	for _, c := range out.Checks {
		fmt.Fprintf(w, "check failed: %s\n", c)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// stampEnv records the machine and inputs a result was measured on.
func stampEnv(workload string, seed int64, trace int) map[string]string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]string{
		"workload":   workload,
		"seed":       strconv.FormatInt(seed, 10),
		"trace":      strconv.Itoa(trace),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"cpu":        cpuModel(),
		"commit":     commit,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heapWatch samples the live heap, the bytes the last garbage collection
// found reachable, every 2ms, and keeps its high-water mark. That moves
// with what the program retains; the resident high-water mark moves as
// much again with where the collections happen to fall.
type heapWatch struct {
	done chan struct{}
	peak chan float64
}

func watchHeap() *heapWatch {
	h := &heapWatch{done: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		var peak uint64
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.done:
				h.peak <- float64(peak) / (1 << 20)
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak live heap in MB.
func (h *heapWatch) stop() float64 {
	close(h.done)
	return <-h.peak
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// timeSetup runs set-up reps times and returns the last result and the
// median wall time; each run must stand alone. release, if not nil, frees
// every result but the last, outside the timed part.
func timeSetup[T any](reps int, f func() (T, error), release func(T) error) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 && release != nil {
			if err := release(last); err != nil {
				return last, 0, err
			}
		}
		start := time.Now()
		v, err := f()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return last, MedianValue(secs), nil
}

// repeat runs iter until b.Seconds has passed, at least once. A traced run
// alternates untraced and traced iterations, so the two halves see the
// same machine state and their difference is the tracing overhead.
func repeat[T any](b *Bench, iter func(tr *Tracer) (T, error)) (untraced, traced []T, err error) {
	start := time.Now()
	for len(untraced) == 0 || time.Since(start) < b.Seconds {
		v, err := iter(nil)
		if err != nil {
			return nil, nil, err
		}
		untraced = append(untraced, v)
		if b.Tr == nil {
			continue
		}
		if v, err = iter(b.Tr); err != nil {
			return nil, nil, err
		}
		traced = append(traced, v)
	}
	return untraced, traced, nil
}
