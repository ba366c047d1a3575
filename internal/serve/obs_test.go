package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// --- /metrics exposition regression -----------------------------------------

// promSeries matches one Prometheus text-format sample line.
var promSeries = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// stableNames are the metric families the first serving PRs exposed; they
// must keep rendering under exactly these names.
var stableNames = []string{
	"espserve_requests_total",
	"espserve_request_errors_total",
	"espserve_request_latency_micros_total",
	"espserve_cache_hits_total",
	"espserve_cache_misses_total",
	"espserve_batches_total",
	"espserve_batched_jobs_total",
	"espserve_predicted_vectors_total",
	"espserve_inflight_requests",
	"espserve_drain_rejects_total",
	"espserve_request_timeouts_total",
	"espserve_shed_total",
	"espserve_degraded_total",
	"espserve_panics_recovered_total",
	"espserve_budget_rejects_total",
	// Cluster-mode families (PR 8): peer artifact-cache traffic, router
	// failover, and model-registry reloads render under these names even on
	// a single replica (zero-valued), so dashboards are cluster-shape
	// everywhere.
	"espserve_peer_hits_total",
	"espserve_peer_misses_total",
	"espserve_failover_total",
	"espserve_reloads_total",
}

// family maps a sample name to its metric family: histogram series names
// carry a _bucket/_sum/_count suffix on top of the family name.
func family(name string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// TestMetricsExpositionWellFormed drives real traffic and then parses the
// /metrics output line by line: every family has # HELP and # TYPE metadata
// before its series, every series line is well-formed, histogram buckets
// are cumulative/monotone and end at a +Inf bucket equal to _count, and the
// metric names from the earlier serving PRs are still present.
func TestMetricsExpositionWellFormed(t *testing.T) {
	_, data := testModel(t)
	s, ts := testServer(t, Config{})

	// Vector and source traffic so endpoint histograms and the queue-wait
	// histogram all have observations.
	if resp, _ := postPredict(t, ts.URL, PredictRequest{Vectors: vectorValues(data[0].Vectors[:4])}); resp.StatusCode != http.StatusOK {
		t.Fatalf("vector predict: %d", resp.StatusCode)
	}
	if resp, _ := postPredict(t, ts.URL, PredictRequest{Name: "chaos", Source: chaosSource}); resp.StatusCode != http.StatusOK {
		t.Fatalf("source predict: %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body := buf.String()

	helps := map[string]bool{}
	types := map[string]string{}
	type bucketKey struct{ family, labels string }
	lastBucket := map[bucketKey]int64{}
	infBucket := map[bucketKey]int64{}
	countVal := map[bucketKey]int64{}
	seen := map[string]bool{}

	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: malformed HELP: %q", i+1, line)
			}
			helps[parts[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", i+1, parts[1])
			}
			types[parts[0]] = parts[1]
		case line == "":
			t.Fatalf("line %d: blank line in exposition", i+1)
		default:
			m := promSeries.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed series: %q", i+1, line)
			}
			name, labels := m[1], m[2]
			fam := family(name, types)
			if !helps[fam] || types[fam] == "" {
				t.Fatalf("line %d: series %s before # HELP/# TYPE for %s", i+1, name, fam)
			}
			seen[name] = true
			val, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q", i+1, m[3])
			}
			if types[fam] == "histogram" {
				// Strip the le label to group one histogram's buckets.
				stripped := regexp.MustCompile(`,?le="[^"]*"`).ReplaceAllString(labels, "")
				if stripped == "{}" {
					stripped = ""
				}
				k := bucketKey{fam, stripped}
				switch {
				case strings.HasSuffix(name, "_bucket"):
					c := int64(val)
					if c < lastBucket[k] {
						t.Errorf("line %d: bucket counts not monotone for %s%s", i+1, fam, stripped)
					}
					lastBucket[k] = c
					if strings.Contains(labels, `le="+Inf"`) {
						infBucket[k] = c
					}
				case strings.HasSuffix(name, "_count"):
					countVal[k] = int64(val)
				}
			}
		}
	}

	for _, name := range stableNames {
		if !seen[name] {
			t.Errorf("stable metric %s missing from exposition", name)
		}
	}
	if !seen["espserve_request_canceled_total"] {
		t.Error("espserve_request_canceled_total missing")
	}
	for _, g := range []string{
		"espserve_batch_queue_depth", "espserve_batch_queue_age_micros",
		"espserve_busy_workers", "espserve_workers", "espserve_worker_utilization",
		"espserve_model_version",
	} {
		if !seen[g] {
			t.Errorf("gauge %s missing", g)
		}
	}

	// The cluster counters respond to their feeders: ClusterStats
	// increments land under the promoted family names.
	cs := s.ClusterStats()
	cs.PeerHit()
	cs.PeerMiss()
	cs.Failover()
	rendered := s.metrics.render()
	for _, want := range []string{
		"espserve_peer_hits_total 1",
		"espserve_peer_misses_total 1",
		"espserve_failover_total 1",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("exposition missing %q after ClusterStats increment", want)
		}
	}

	// Histogram series exist for every endpoint and for batch-queue wait,
	// +Inf equals _count, and the endpoints that served traffic are
	// non-empty.
	for _, ep := range []string{"predict", "healthz", "metrics", "debug", "other"} {
		k := bucketKey{"espserve_request_latency_micros", fmt.Sprintf("{endpoint=%q}", ep)}
		if _, ok := infBucket[k]; !ok {
			t.Errorf("no latency histogram for endpoint %q", ep)
		}
		if infBucket[k] != countVal[k] {
			t.Errorf("endpoint %q: +Inf bucket %d != count %d", ep, infBucket[k], countVal[k])
		}
	}
	qk := bucketKey{"espserve_batch_queue_wait_micros", ""}
	if infBucket[qk] != countVal[qk] {
		t.Errorf("queue-wait: +Inf bucket %d != count %d", infBucket[qk], countVal[qk])
	}
	if countVal[qk] == 0 {
		t.Error("queue-wait histogram empty after predictions")
	}
	pk := bucketKey{"espserve_request_latency_micros", `{endpoint="predict"}`}
	if countVal[pk] != 2 {
		t.Errorf("predict latency histogram count = %d, want 2", countVal[pk])
	}
}

// --- canceled vs deadline accounting -----------------------------------------

// waitCounter polls an atomic counter until it reaches want or the deadline
// passes.
func waitCounter(t *testing.T, name string, load func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, load(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeadlineExceededAccounting forces the worker to out-sleep the request
// deadline: the request must surface as 504 (NoDegrade) and increment the
// timeout counter, not the canceled counter.
func TestDeadlineExceededAccounting(t *testing.T) {
	_, data := testModel(t)
	s, ts := testServer(t, Config{
		Workers: 1, MaxBatch: 1,
		RequestTimeout: 150 * time.Millisecond,
		NoDegrade:      true,
	})
	inj := faultinject.New(7, faultinject.Rule{
		Site: "serve.forward", Kind: faultinject.Latency,
		Delay: 500 * time.Millisecond, Rate: 1,
	})
	deactivate := faultinject.Activate(inj)
	defer deactivate()

	resp, _ := postPredict(t, ts.URL, PredictRequest{Vectors: vectorValues(data[0].Vectors[:1])})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if got := s.metrics.timeouts.Load(); got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
	if got := s.metrics.canceled.Load(); got != 0 {
		t.Errorf("canceled = %d, want 0", got)
	}
	if !strings.Contains(s.metrics.render(), "espserve_request_timeouts_total 1") {
		t.Error("timeout not rendered under its stable name")
	}
}

// TestClientCancelAccounting abandons a request client-side while the
// worker is slow: the server must account it as canceled (499), not as a
// server deadline.
func TestClientCancelAccounting(t *testing.T) {
	_, data := testModel(t)
	s, ts := testServer(t, Config{
		Workers: 1, MaxBatch: 1,
		RequestTimeout: 10 * time.Second,
	})
	inj := faultinject.New(7, faultinject.Rule{
		Site: "serve.forward", Kind: faultinject.Latency,
		Delay: 500 * time.Millisecond, Rate: 1,
	})
	deactivate := faultinject.Activate(inj)
	defer deactivate()

	body, err := json.Marshal(PredictRequest{Vectors: vectorValues(data[0].Vectors[:1])})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/predict", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("request succeeded despite client cancel")
	}
	waitCounter(t, "canceled", s.metrics.canceled.Load, 1)
	if got := s.metrics.timeouts.Load(); got != 0 {
		t.Errorf("timeouts = %d, want 0 for a client cancel", got)
	}
	if !strings.Contains(s.metrics.render(), "espserve_request_canceled_total 1") {
		t.Error("cancellation not rendered under espserve_request_canceled_total")
	}
}

// --- statusWriter and metrics fallbacks --------------------------------------

func TestStatusWriterFlushPassthrough(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec, status: http.StatusOK}
	f, ok := interface{}(sw).(http.Flusher)
	if !ok {
		t.Fatal("statusWriter does not implement http.Flusher")
	}
	f.Flush()
	if !rec.Flushed {
		t.Error("Flush did not reach the underlying writer")
	}
	// The modern path: http.ResponseController finds Flush through Unwrap
	// or the direct implementation.
	rec2 := httptest.NewRecorder()
	sw2 := &statusWriter{ResponseWriter: rec2, status: http.StatusOK}
	if err := http.NewResponseController(sw2).Flush(); err != nil {
		t.Errorf("ResponseController.Flush: %v", err)
	}
	if !rec2.Flushed {
		t.Error("ResponseController flush did not reach the recorder")
	}
	// A WriteHeader after a Flush must not duplicate onto the wire.
	sw2.WriteHeader(http.StatusTeapot)
	if sw2.status != http.StatusOK {
		t.Errorf("status mutated to %d after flush", sw2.status)
	}
}

func TestMetricsEndpointFallback(t *testing.T) {
	m := newMetrics()
	st := m.endpoint("never-registered")
	if st == nil {
		t.Fatal("unknown endpoint returned nil")
	}
	st.observe(123, true) // must not panic
	if st != m.endpoint("other") {
		t.Error("fallback is not the registered \"other\" block")
	}
	out := m.render()
	if !strings.Contains(out, `espserve_requests_total{endpoint="other"} 1`) {
		t.Errorf("fallback traffic not rendered:\n%s", out)
	}
	if !strings.Contains(out, `espserve_request_errors_total{endpoint="other"} 1`) {
		t.Error("fallback error not rendered")
	}
}

// --- /debug/requests and trace spans -----------------------------------------

func getDebugRequests(t *testing.T, url string) []*obs.Trace {
	t.Helper()
	resp, err := http.Get(url + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests: %d", resp.StatusCode)
	}
	var dr debugRequestsResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	return dr.Traces
}

// spanStages returns the set of stage names on a trace.
func spanStages(tr *obs.Trace) map[string]bool {
	out := make(map[string]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		out[sp.Stage] = true
	}
	return out
}

// TestDebugRequestsTraces drives the compile and vector paths and asserts
// the ring at /debug/requests carries ordered per-stage spans for them.
func TestDebugRequestsTraces(t *testing.T) {
	_, data := testModel(t)
	s, ts := testServer(t, Config{})

	// Source twice: a compile-path trace, then a cache-hit trace.
	for i := 0; i < 2; i++ {
		if resp, _ := postPredict(t, ts.URL, PredictRequest{Name: "chaos", Source: chaosSource}); resp.StatusCode != http.StatusOK {
			t.Fatalf("source predict %d: %d", i, resp.StatusCode)
		}
	}
	// Vector path with a client-chosen request ID.
	body, _ := json.Marshal(PredictRequest{Vectors: vectorValues(data[0].Vectors[:2])})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/predict", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "my-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Traces are recorded after the response is written; poll until all
	// three predict traces have landed in the ring.
	var compileTrace, cachedTrace, vecTrace *obs.Trace
	deadline := time.Now().Add(5 * time.Second)
	for {
		compileTrace, cachedTrace, vecTrace = nil, nil, nil
		for _, tr := range getDebugRequests(t, ts.URL) {
			if tr.Endpoint != "predict" {
				continue
			}
			st := spanStages(tr)
			switch {
			case tr.ID == "my-id-42":
				vecTrace = tr
			case st[obs.StageCompile]:
				compileTrace = tr
			case st[obs.StageCache]:
				cachedTrace = tr
			}
		}
		if compileTrace != nil && cachedTrace != nil && vecTrace != nil {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if compileTrace == nil {
		t.Fatal("no trace with a compile span")
	}
	st := spanStages(compileTrace)
	for _, stage := range []string{
		obs.StageAdmission, obs.StageDecode, obs.StageCompile,
		obs.StageFeaturize, obs.StageQueueWait, obs.StageForward, obs.StageEncode,
	} {
		if !st[stage] {
			t.Errorf("compile-path trace missing %q span: %+v", stage, compileTrace.Spans)
		}
	}
	if cachedTrace == nil {
		t.Error("no trace with a cache span for the repeated source")
	}
	if vecTrace == nil {
		t.Fatal("X-Request-ID trace not found in ring")
	}
	vst := spanStages(vecTrace)
	for _, stage := range []string{obs.StageFeaturize, obs.StageQueueWait, obs.StageForward} {
		if !vst[stage] {
			t.Errorf("vector trace missing %q span", stage)
		}
	}

	// Spans are ordered and sane; the trace is finalized.
	for _, tr := range []*obs.Trace{compileTrace, vecTrace} {
		prev := int64(-1)
		for _, sp := range tr.Spans {
			if sp.StartUS < prev {
				t.Errorf("trace %s: span %s out of order", tr.ID, sp.Stage)
			}
			if sp.DurUS < 0 {
				t.Errorf("trace %s: span %s negative duration", tr.ID, sp.Stage)
			}
			prev = sp.StartUS
		}
		if tr.Status != http.StatusOK {
			t.Errorf("trace %s status %d", tr.ID, tr.Status)
		}
		if tr.DurUS <= 0 {
			t.Errorf("trace %s has no total duration", tr.ID)
		}
	}

	// The latency histograms saw the traffic.
	if lat := &s.metrics.endpoint("predict").latency; lat.Count() == 0 || lat.Sum() <= 0 {
		t.Errorf("predict latency histogram count=%d sum=%dµs after traffic", lat.Count(), lat.Sum())
	}
	if s.metrics.queueWait.Count() == 0 {
		t.Error("queue-wait histogram never observed")
	}
}

// TestTraceRingBounded floods more requests than the ring holds.
func TestTraceRingBounded(t *testing.T) {
	_, data := testModel(t)
	_, ts := testServer(t, Config{TraceRing: 4})
	for i := 0; i < 10; i++ {
		if resp, _ := postPredict(t, ts.URL, PredictRequest{Vectors: vectorValues(data[0].Vectors[:1])}); resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %d: %d", i, resp.StatusCode)
		}
	}
	traces := getDebugRequests(t, ts.URL)
	if len(traces) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(traces))
	}
}

// TestAccessLogSampling wires an access-log writer at sample=1 and expects
// one JSON line per request.
func TestAccessLogSampling(t *testing.T) {
	_, data := testModel(t)
	var buf syncBuffer
	_, ts := testServer(t, Config{TraceSample: 1, AccessLog: &buf})
	if resp, _ := postPredict(t, ts.URL, PredictRequest{Vectors: vectorValues(data[0].Vectors[:1])}); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d", resp.StatusCode)
	}
	// The trace is recorded after the response is written, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var found bool
		for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
			if line == "" {
				continue
			}
			var tr obs.Trace
			if err := json.Unmarshal([]byte(line), &tr); err != nil {
				t.Fatalf("access-log line is not JSON: %q: %v", line, err)
			}
			if tr.Endpoint == "predict" && len(tr.Spans) > 0 {
				found = true
			}
		}
		if found {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no predict trace with spans in the access log:\n%s", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for test log capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
