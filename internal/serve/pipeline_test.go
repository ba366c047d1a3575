package serve

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/testutil"
)

// quantTestServer builds a server over a calibrated, quant-enabled copy of
// the fixture model.
func quantTestServer(t testing.TB, cfg Config) *Server {
	model, data := testModel(t)
	qm := core.Train(data, core.Config{Hidden: 8, Net: model.Cfg.Net})
	if _, err := core.CalibrateQuant(qm, data, nil); err != nil {
		t.Fatal(err)
	}
	if err := qm.EnableQuant(); err != nil {
		t.Fatal(err)
	}
	cfg.Model = qm
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func benchBody(t testing.TB, nvec int) []byte {
	_, data := testModel(t)
	vecs := data[0].Vectors
	for len(vecs) < nvec {
		vecs = append(vecs, vecs...)
	}
	body, err := json.Marshal(PredictRequest{ID: "bench", Vectors: vectorValues(vecs[:nvec])})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestPredictPipelineMatchesReference pins the two exported pipelines to
// each other: same request, same predictions, on the same quant-enabled
// server (the reference pipeline runs whatever model the server holds, so
// both paths answer from the int8 model and must agree bit for bit).
func TestPredictPipelineMatchesReference(t *testing.T) {
	s := quantTestServer(t, Config{Workers: 1, MaxBatch: 4})
	body := benchBody(t, 6)
	ctx := context.Background()

	fast, err := s.PredictPipeline(ctx, body, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.PredictPipelineReference(ctx, body)
	if err != nil {
		t.Fatal(err)
	}
	var fastResp, refResp PredictResponse
	if err := json.Unmarshal(fast, &fastResp); err != nil {
		t.Fatalf("fast-path response is not JSON: %v\n%s", err, fast)
	}
	if err := json.Unmarshal(ref, &refResp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fastResp, refResp) {
		t.Fatalf("pipelines disagree:\nfast %+v\nref  %+v", fastResp, refResp)
	}

	if _, err := s.PredictPipeline(ctx, []byte(`{"source":"int f(){}"}`), nil); err == nil {
		t.Fatal("PredictPipeline accepted a non-vectors request")
	}
}

// TestQuantServePipelineSpeedup guards the quantized serving path: the
// arena pipeline must serve ≥ 5x the predictions/sec/core of the float
// baseline (encoding/json + float64 forward), with zero steady-state
// allocations. Runs in the race-enabled CI load matrix — both pipelines
// carry the instrumentation, so the ratio survives it; the alloc assertion
// alone needs a plain build.
func TestQuantServePipelineSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline speedup measurement in short mode")
	}
	model, _ := testModel(t)
	ref, err := New(Config{Model: model, Workers: 1, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	fast := quantTestServer(t, Config{Workers: 1, MaxBatch: 1})
	body := benchBody(t, 4)
	ctx := context.Background()

	refRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ref.PredictPipelineReference(ctx, body); err != nil {
				b.Fatal(err)
			}
		}
	})
	var out []byte
	fastRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			out, err = fast.PredictPipeline(ctx, body, out)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	speedup := float64(refRes.NsPerOp()) / float64(fastRes.NsPerOp())
	t.Logf("float reference %d ns/req, quant arena %d ns/req: %.1fx, %d allocs/op",
		refRes.NsPerOp(), fastRes.NsPerOp(), speedup, fastRes.AllocsPerOp())
	// Race instrumentation taxes the compute-bound int8 path per memory
	// access while the json path's cost is mostly allocation, so the race
	// build compresses the ratio; it keeps a regression tripwire while the
	// plain build asserts the real bound.
	want := 5.0
	if testutil.RaceEnabled {
		want = 2.0
	}
	if speedup < want {
		t.Errorf("quantized pipeline speedup %.2fx, want >= %.0fx", speedup, want)
	}
	if !testutil.RaceEnabled && fastRes.AllocsPerOp() != 0 {
		t.Errorf("steady-state pipeline allocates %d per request, want 0", fastRes.AllocsPerOp())
	}
}

func BenchmarkPipelineReferenceFloat(b *testing.B) {
	model, _ := testModel(b)
	s, err := New(Config{Model: model, Workers: 1, MaxBatch: 1})
	if err != nil {
		b.Fatal(err)
	}
	body := benchBody(b, 4)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PredictPipelineReference(ctx, body); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*4), "ns/prediction")
}

func BenchmarkPipelineArenaQuant(b *testing.B) {
	s := quantTestServer(b, Config{Workers: 1, MaxBatch: 1})
	body := benchBody(b, 4)
	ctx := context.Background()
	var out []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, err = s.PredictPipeline(ctx, body, out)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*4), "ns/prediction")
}
