package neural

import (
	"math"
	"testing"
)

// synthBatch builds a deterministic batch with the sparsity structure the
// encoder produces: blocks of columns that are either entirely zero (a gated
// feature) or entirely nonzero (an active, mean-centered one-hot block).
func synthBatch(rows, cols, block int, seed uint64) ([][]float64, []float64, []float64) {
	return gatedBatch(rows, cols, block, 0.3, seed)
}

// gatedBatch is synthBatch with the gate threshold exposed: a block is zero
// when a uniform draw in (-1, 1) falls below gate.
func gatedBatch(rows, cols, block int, gate float64, seed uint64) ([][]float64, []float64, []float64) {
	r := newRNG(seed)
	xs := make([][]float64, rows)
	t := make([]float64, rows)
	w := make([]float64, rows)
	var wsum float64
	for k := range xs {
		x := make([]float64, cols)
		for b := 0; b < cols; b += block {
			if r.uniform() < gate {
				continue // gated block: exact zeros
			}
			hi := b + block
			if hi > cols {
				hi = cols
			}
			for j := b; j < hi; j++ {
				x[j] = 2*r.uniform() - 1
			}
		}
		xs[k] = x
		if r.uniform() < 0.5 {
			t[k] = 1
		}
		w[k] = r.uniform() + 0.01
		wsum += w[k]
	}
	for k := range w {
		w[k] /= wsum
	}
	return xs, t, w
}

func sameNet(t *testing.T, label string, a, b *Net) {
	t.Helper()
	for i, v := range a.W {
		if v != b.W[i] {
			t.Fatalf("%s: W[%d] = %g vs %g", label, i, v, b.W[i])
		}
	}
	for i := range a.B {
		if a.B[i] != b.B[i] || a.V[i] != b.V[i] {
			t.Fatalf("%s: hidden unit %d differs", label, i)
		}
	}
	if a.A != b.A {
		t.Fatalf("%s: A = %g vs %g", label, a.A, b.A)
	}
}

func sameResult(t *testing.T, label string, a, b TrainResult) {
	t.Helper()
	if a.Epochs != b.Epochs || a.StoppedEarly != b.StoppedEarly {
		t.Fatalf("%s: epochs %d/%v vs %d/%v", label,
			a.Epochs, a.StoppedEarly, b.Epochs, b.StoppedEarly)
	}
	if a.FinalLoss != b.FinalLoss || a.BestThresholded != b.BestThresholded ||
		a.FinalLearnRate != b.FinalLearnRate {
		t.Fatalf("%s: loss %v/%v/%v vs %v/%v/%v", label,
			a.FinalLoss, a.BestThresholded, a.FinalLearnRate,
			b.FinalLoss, b.BestThresholded, b.FinalLearnRate)
	}
}

// TestTrainCSRMatchesDense is the tentpole equivalence guarantee: the sparse
// fused kernel must produce bit-for-bit the same model and statistics as the
// dense reference on the same seed and data.
func TestTrainCSRMatchesDense(t *testing.T) {
	for _, seed := range []uint64{1, 42, 12345} {
		cfg := Config{Inputs: 40, Hidden: 7, Seed: seed,
			MaxEpochs: 150, Patience: 12, RecordHistory: true}
		xs, targets, w := synthBatch(90, cfg.Inputs, 5, seed*31+7)

		dense := New(cfg)
		dres := dense.Train(cfg, xs, targets, w)

		sparse := New(cfg)
		sres := sparse.TrainCSR(cfg, NewCSRFromDense(xs, cfg.Inputs), targets, w)

		sameNet(t, "model", dense, sparse)
		sameResult(t, "stats", dres, sres)
		if len(dres.LossHistory) != len(sres.LossHistory) {
			t.Fatalf("loss history length %d vs %d",
				len(dres.LossHistory), len(sres.LossHistory))
		}
		for i := range dres.LossHistory {
			if dres.LossHistory[i] != sres.LossHistory[i] {
				t.Fatalf("loss history[%d]: %g vs %g",
					i, dres.LossHistory[i], sres.LossHistory[i])
			}
		}
		if len(dres.ThresholdHistory) != len(sres.ThresholdHistory) {
			t.Fatalf("threshold history length %d vs %d",
				len(dres.ThresholdHistory), len(sres.ThresholdHistory))
		}
		for i := range dres.ThresholdHistory {
			if dres.ThresholdHistory[i] != sres.ThresholdHistory[i] {
				t.Fatalf("threshold history[%d]: %g vs %g",
					i, dres.ThresholdHistory[i], sres.ThresholdHistory[i])
			}
		}
	}
}

// TestTrainCSRMatchesDenseProductionShape runs the equivalence check at the
// shape real folds train at: 20 hidden units, about 90 inputs of which all
// but a few are nonzero per row, and a few hundred rows.
func TestTrainCSRMatchesDenseProductionShape(t *testing.T) {
	cfg := Config{Inputs: 90, Hidden: 20, Seed: 3, MaxEpochs: 60, Patience: 60}
	xs, targets, w := gatedBatch(300, cfg.Inputs, 1, -0.86, 77)
	data := NewCSRFromDense(xs, cfg.Inputs)
	if nnz := float64(len(data.Index)) / float64(data.Rows()); nnz < 80 {
		t.Fatalf("%.1f nonzeros per row, want a near-dense batch", nnz)
	}

	dense := New(cfg)
	dres := dense.Train(cfg, xs, targets, w)
	sparse := New(cfg)
	sres := sparse.TrainCSR(cfg, data, targets, w)
	sameNet(t, "model", dense, sparse)
	sameResult(t, "stats", dres, sres)
}

func TestForwardIntoMatchesForward(t *testing.T) {
	n := New(Config{Inputs: 9, Hidden: 4, Seed: 6})
	h := make([]float64, n.Hidden)
	r := newRNG(55)
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, n.Inputs)
		for j := range x {
			if r.uniform() < 0.4 {
				x[j] = 2*r.uniform() - 1
			}
		}
		if got, want := n.ForwardInto(h, x), n.Forward(x); got != want {
			t.Fatalf("ForwardInto = %g, Forward = %g", got, want)
		}
	}
}

// TestForwardRowMatchesDense: the CSR row forward must be bit-identical to
// the dense forward on the equivalent dense row.
func TestForwardRowMatchesDense(t *testing.T) {
	n := New(Config{Inputs: 25, Hidden: 5, Seed: 8})
	xs, _, _ := synthBatch(30, n.Inputs, 5, 91)
	data := NewCSRFromDense(xs, n.Inputs)
	h := make([]float64, n.Hidden)
	for k, x := range xs {
		idx, val := data.Row(k)
		if got, want := n.forwardRow(h, idx, val), n.Forward(x); got != want {
			t.Fatalf("row %d: forwardRow = %g, Forward = %g", k, got, want)
		}
	}
}

func TestHistoryGatedByConfig(t *testing.T) {
	cfg := Config{Inputs: 10, Hidden: 3, Seed: 2, MaxEpochs: 30, Patience: 30}
	xs, targets, w := synthBatch(20, cfg.Inputs, 5, 13)
	n := New(cfg)
	res := n.TrainCSR(cfg, NewCSRFromDense(xs, cfg.Inputs), targets, w)
	if res.LossHistory != nil || res.ThresholdHistory != nil {
		t.Error("history recorded without RecordHistory")
	}
	cfg.RecordHistory = true
	n2 := New(cfg)
	res2 := n2.TrainCSR(cfg, NewCSRFromDense(xs, cfg.Inputs), targets, w)
	if len(res2.LossHistory) != res2.Epochs {
		t.Errorf("loss history %d entries, want %d", len(res2.LossHistory), res2.Epochs)
	}
	if math.IsInf(res2.BestThresholded, 1) {
		t.Error("BestThresholded never set")
	}
}

// TestKernelsMatchGeneric exercises the dispatching gather/scatter kernels
// against the portable loops across awkward shapes: vector-width remainders,
// and single lanes.
func TestKernelsMatchGeneric(t *testing.T) {
	r := newRNG(321)
	for _, shape := range []struct{ n, cols, nnz int }{
		{1, 3, 5}, {3, 4, 9}, {4, 6, 11}, {7, 10, 25},
		{20, 80, 60}, {5, 80, 60}, {6, 9, 17},
	} {
		w := make([]float64, shape.cols*shape.n)
		for i := range w {
			w[i] = 2*r.uniform() - 1
		}
		idx := make([]int32, shape.nnz)
		val := make([]float64, shape.nnz)
		for p := range idx {
			idx[p] = int32(int(r.next()) % shape.cols)
			if idx[p] < 0 {
				idx[p] += int32(shape.cols)
			}
			val[p] = 2*r.uniform() - 1
		}
		h1 := make([]float64, shape.n)
		h2 := make([]float64, shape.n)
		for i := range h1 {
			h1[i] = r.uniform()
			h2[i] = h1[i]
		}
		csrGather(h1, w, idx, val, shape.n)
		csrGatherGeneric(h2, w, idx, val, shape.n)
		for i := range h1 {
			if h1[i] != h2[i] {
				t.Fatalf("gather %+v: h[%d] = %g vs %g", shape, i, h1[i], h2[i])
			}
		}
		g1 := make([]float64, len(w))
		g2 := make([]float64, len(w))
		dh := make([]float64, shape.n)
		for i := range dh {
			dh[i] = 2*r.uniform() - 1
		}
		csrScatter(g1, dh, idx, val, shape.n)
		csrScatterGeneric(g2, dh, idx, val, shape.n)
		for i := range g1 {
			if g1[i] != g2[i] {
				t.Fatalf("scatter %+v: g[%d] = %g vs %g", shape, i, g1[i], g2[i])
			}
		}
	}
}
