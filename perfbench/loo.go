package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/ir"
)

// looExpected are the Fortran group's leave-one-out miss rates under the
// default core.Config, as core.CrossValidateSerial computes them (mean
// 0.193599226998209). Training is deterministic, so every run must
// reproduce them bit for bit.
var looExpected = map[string]float64{
	"doduc": 0.2534250834248762, "fpppp": 0.3989660236165034,
	"hydro2d": 0.020083418036521677, "mdljsp2": 0.3851252331468159,
	"nasa7": 0.06442698374760994, "ora": 0.12586772446410863,
	"spice": 0.07287111673076585, "su2cor": 0.3515316013958899,
	"swm256": 0.028907398334149927, "tomcatv": 0.12370655025215616,
	"wave5": 0.24394364610807107, "APS": 0.26370287667781506,
	"CSS": 0.04472335663936938, "LWS": 0.23272943831494483,
	"NAS": 0.05239754701183499, "OCS": 0.45449309545685174,
	"SDS": 0.24061685796774876, "TFS": 0.03879756432164432,
	"TIS": 0.1903387173041985, "WSS": 0.2853303070123044,
}

// analyzeAll compiles and profiles corpus programs.
func analyzeAll(entries []corpus.Entry) ([]*core.ProgramData, error) {
	var data []*core.ProgramData
	for _, e := range entries {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			return nil, err
		}
		pd, err := core.Analyze(prog, e.Language, e.RunConfig())
		if err != nil {
			return nil, err
		}
		data = append(data, pd)
	}
	return data, nil
}

func checkFolds(out *Outcome, folds []core.FoldResult) {
	out.Attempted += int64(len(folds))
	if len(folds) != len(looExpected) {
		out.Fail("loo: %d folds, want %d", len(folds), len(looExpected))
	}
	for _, f := range folds {
		if want, ok := looExpected[f.Held]; !ok || f.MissRate != want {
			out.Failed++
			out.Fail("loo fold %s: miss rate %v, want %v", f.Held, f.MissRate, want)
		}
	}
}

func runLOO(b *Bench) (*Outcome, error) {
	out := newOutcome()
	data, setup, err := timeSetup(5, func() ([]*core.ProgramData, error) {
		return analyzeAll(corpus.ByLanguage(ir.LangFortran))
	}, nil)
	if err != nil {
		return nil, err
	}
	out.E2E["setup_s"] = setup

	// One full cross-validation takes longer than a short run; at least one
	// always completes, and another starts only if it should fit.
	var walls []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start)+time.Duration(walls[0]*float64(time.Second)) <= b.Seconds {
		t := time.Now()
		folds := core.CrossValidate(data, core.Config{})
		walls = append(walls, time.Since(t).Seconds())
		checkFolds(out, folds)
		if b.Tr != nil {
			break
		}
	}
	loo := MedianValue(walls)
	out.Line("loo_s", loo, "s", fmt.Sprintf("median of %d runs over %d folds", len(walls), len(data)))
	ms := make([]float64, len(walls))
	for i, w := range walls {
		ms[i] = w * 1e3
	}
	out.E2E["throughput_per_s"] = float64(len(data)) / loo
	out.E2E["p50_ms"] = Median(ms).Value
	out.E2E["tail_ms"] = Tail(ms).Value
	if b.Tr != nil {
		looLayers(b, out, data, loo)
	}
	return out, nil
}

// looLayers runs each fold through the public calls CrossValidate makes —
// train on the other programs, score the held one — on the same number of
// workers, timing each.
func looLayers(b *Bench, out *Outcome, data []*core.ProgramData, loo float64) {
	examples := make([][]core.Example, len(data))
	for i, pd := range data {
		examples[i] = pd.Examples()
	}
	folds := make([]core.FoldResult, len(data))
	epochs := make([]int, len(data))
	next := atomic.Int64{}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < b.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(data) {
					return
				}
				held := data[i]
				fold := b.Tr.Start("core.fold", 0, held.Name)
				var train []core.Example
				for j := range data {
					if j != i {
						train = append(train, examples[j]...)
					}
				}
				sp := b.Tr.Start("core.train", fold.ID(), held.Name)
				m := core.TrainExamples(train, core.Config{})
				sp.End()
				sp = b.Tr.Start("heuristics.missrate", fold.ID(), held.Name)
				miss := heuristics.MissRate(held.Sites, held.Profile, &core.Predictor{Model: m})
				sp.End()
				fold.End()
				folds[i] = core.FoldResult{Held: held.Name, MissRate: miss}
				epochs[i] = m.TrainStats.Epochs
			}
		}()
	}
	wg.Wait()
	traced := time.Since(start).Seconds()
	checkFolds(out, folds)

	// Encoding alone, per fold, on the vectors the fold trains on (with
	// the features the default configuration hides masked out).
	for i := range data {
		var vecs []features.Vector
		for j := range data {
			if j == i {
				continue
			}
			for _, ex := range examples[j] {
				v := ex.Vector
				v.Values[features.FLibraryProc] = features.Unknown
				v.Values[features.FCorrSharedCond] = features.Unknown
				v.Values[features.FCorrDomCond] = features.Unknown
				vecs = append(vecs, v)
			}
		}
		sp := b.Tr.Start("features.encode", 0, data[i].Name)
		enc := features.NewEncoder(vecs)
		enc.EncodeAllSparse(vecs)
		sp.End()
	}

	ss := NewSpanSet(b.Tr.Spans())
	var foldS []float64
	for _, sp := range ss.Named("core.train") {
		foldS = append(foldS, sp.Dur().Seconds())
	}
	var foldSum float64
	for _, sp := range ss.Named("core.fold") {
		foldSum += sp.Dur().Seconds()
	}
	total := 0
	for _, e := range epochs {
		total += e
	}
	L := out.Layers
	L["features.encode_us"] = Median(ss.SelfMicros("features.encode")).Value
	L["core.fold_train_s_p50"] = Median(foldS).Value
	L["core.fold_train_s_max"] = sorted(foldS)[len(foldS)-1]
	L["neural.epochs"] = float64(total) / float64(len(epochs))
	L["neural.epoch_ms"] = ratio(sum(foldS)*1e3, float64(total))
	L["core.crossval_busy_ratio"] = foldSum / (loo * float64(runtime.GOMAXPROCS(0)))
	L["heuristics.missrate_us"] = Median(ss.SelfMicros("heuristics.missrate")).Value
	L["trace.overhead_ratio"] = traced/loo - 1
}
