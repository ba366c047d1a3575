package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLoadConcurrentClients is the load-generator acceptance test: hundreds
// of concurrent clients hammer one httptest server, every response must be
// routed back to the client that asked for it (checked by a unique request
// ID and by the per-client expected probabilities), and nothing may be
// dropped. The clients use the retrying Client, so admission-control sheds
// (429) are absorbed by backoff and every request still completes. Run
// under -race in CI.
func TestLoadConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("load test in short mode")
	}
	model, data := testModel(t)
	srv, ts := testServer(t, Config{MaxBatch: 8, Workers: 4})

	// Every client owns a distinct window of this program's feature
	// vectors, so a misrouted response carries the wrong prediction count
	// or the wrong probabilities.
	vecs := data[0].Vectors
	if len(vecs) < 8 {
		t.Fatalf("fixture program has only %d branch sites", len(vecs))
	}
	offline := make([]float64, len(vecs))
	model.TakenProbabilities(vecs, offline)

	const (
		clients           = 220
		requestsPerClient = 4
	)
	var (
		wg       sync.WaitGroup
		failures atomic.Int64
		served   atomic.Int64
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := NewClient(ts.URL, ClientConfig{
				MaxAttempts:       8,
				BaseDelay:         10 * time.Millisecond,
				MaxDelay:          500 * time.Millisecond,
				PerAttemptTimeout: 30 * time.Second,
				Seed:              int64(c) + 1,
			})
			lo := c % (len(vecs) - 4)
			n := 1 + c%4
			window := vecs[lo : lo+n]
			req := PredictRequest{
				ID:      fmt.Sprintf("client-%d", c),
				Vectors: vectorValues(window),
			}
			for r := 0; r < requestsPerClient; r++ {
				pr, err := client.Predict(context.Background(), &req)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					failures.Add(1)
					return
				}
				if pr.Degraded {
					t.Errorf("client %d: degraded response without injected faults", c)
					failures.Add(1)
					return
				}
				if pr.ID != req.ID {
					t.Errorf("client %d: got response for %q — misrouted", c, pr.ID)
					failures.Add(1)
					return
				}
				if len(pr.Predictions) != n {
					t.Errorf("client %d: %d predictions, want %d", c, len(pr.Predictions), n)
					failures.Add(1)
					return
				}
				for i, p := range pr.Predictions {
					if want := offline[lo+i]; p.Probability != want {
						t.Errorf("client %d: vector %d served %v, offline %v — misrouted or corrupted",
							c, i, p.Probability, want)
						failures.Add(1)
						return
					}
				}
				served.Add(1)
			}
		}(c)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d failed requests", failures.Load())
	}
	if want := int64(clients * requestsPerClient); served.Load() != want {
		t.Fatalf("served %d responses, want %d — requests dropped", served.Load(), want)
	}
	t.Logf("admission control shed %d requests; all absorbed by client retries",
		srv.metrics.shed.Load())

	// One source submission so the trace ring also carries a compile span.
	if resp, _ := postPredict(t, ts.URL, PredictRequest{Name: "chaos", Source: chaosSource}); resp.StatusCode != http.StatusOK {
		t.Fatalf("source predict: %d", resp.StatusCode)
	}

	// The observability acceptance check: after a load run the latency
	// histograms hold real observations and the ring has per-stage spans for
	// decode, compile, queue-wait, and forward.
	if lat := &srv.metrics.endpoint("predict").latency; lat.Count() == 0 || lat.Sum() <= 0 {
		t.Errorf("predict latency histogram count=%d sum=%dµs after load", lat.Count(), lat.Sum())
	}
	if srv.metrics.queueWait.Count() == 0 {
		t.Error("queue-wait histogram empty after load")
	}
	// Traces land in the ring just after their response is written, so give
	// the final compile trace a moment to arrive.
	var stages map[string]bool
	for deadline := time.Now().Add(5 * time.Second); ; {
		stages = map[string]bool{}
		for _, tr := range srv.traces.Snapshot() {
			for _, sp := range tr.Spans {
				stages[sp.Stage] = true
			}
		}
		if stages["decode"] && stages["compile"] && stages["queue-wait"] && stages["forward"] {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, want := range []string{"decode", "compile", "queue-wait", "forward"} {
		if !stages[want] {
			t.Errorf("no %q span recorded during the load run (saw %v)", want, stages)
		}
	}
	lat := &srv.metrics.endpoint("predict").latency
	t.Logf("predict latency mean=%.0fµs over %d requests",
		float64(lat.Sum())/float64(lat.Count()), lat.Count())
}

// TestGracefulDrainCompletesInflight asserts the SIGTERM contract: once a
// drain begins, requests already accepted by the pool still complete
// successfully, new ones are refused with 503, and nothing is dropped on the
// floor.
func TestGracefulDrainCompletesInflight(t *testing.T) {
	if testing.Short() {
		t.Skip("drain test in short mode")
	}
	model, data := testModel(t)
	// One slow worker and single-job batches so work queues up behind it.
	// The request timeout is pushed way out so a loaded machine (race
	// detector, single core) cannot turn queued-but-alive requests into
	// 504s — this test is about drain semantics, not deadlines.
	s, ts := testServer(t, Config{
		Workers: 1, MaxBatch: 1, QueueDepth: 64,
		RequestTimeout: 3 * time.Minute,
	})
	_ = model

	// Big batches make each job take a visible amount of model time.
	big := data[0].Vectors
	for len(big) < 3000 {
		big = append(big, data[0].Vectors...)
	}
	reqBody, err := json.Marshal(PredictRequest{ID: "inflight", Vectors: vectorValues(big)})
	if err != nil {
		t.Fatal(err)
	}

	const inflight = 24
	type result struct {
		status int
		err    error
		when   time.Time
	}
	results := make(chan result, inflight)
	var started sync.WaitGroup
	client := &http.Client{Timeout: 4 * time.Minute}
	for i := 0; i < inflight; i++ {
		started.Add(1)
		go func() {
			started.Done()
			resp, err := client.Post(ts.URL+"/predict", "application/json", bytes.NewReader(reqBody))
			if err != nil {
				results <- result{err: err}
				return
			}
			var pr PredictResponse
			decErr := json.NewDecoder(resp.Body).Decode(&pr)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if decErr != nil {
					results <- result{err: decErr}
					return
				}
				if len(pr.Predictions) != len(big) {
					results <- result{err: fmt.Errorf("%d predictions, want %d", len(pr.Predictions), len(big))}
					return
				}
			}
			results <- result{status: resp.StatusCode, when: time.Now()}
		}()
	}
	started.Wait()
	// Let at least one response land so we know the queue is charged and
	// the worker is mid-stream, then begin the drain.
	first := <-results
	if first.err != nil {
		t.Fatalf("first request failed: %v", first.err)
	}
	drainStart := time.Now()
	drainCtx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	completedAfterDrain := 0
	counts := map[int]int{first.status: 1}
	for i := 1; i < inflight; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("request dropped during drain: %v", r.err)
		}
		counts[r.status]++
		if r.status == http.StatusOK && r.when.After(drainStart) {
			completedAfterDrain++
		}
	}
	if counts[http.StatusOK]+counts[http.StatusServiceUnavailable] != inflight {
		t.Fatalf("unexpected statuses during drain: %v", counts)
	}
	if completedAfterDrain == 0 {
		t.Error("no in-flight request completed after shutdown began")
	}

	// The drained server refuses follow-up work.
	resp, err := client.Post(ts.URL+"/predict", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: status %d, want 503", resp.StatusCode)
	}
}
