package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/codegen"
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
)

// analyzeSrc compiles and profiles a MinC program.
func analyzeSrc(t testing.TB, name, src string, input []int64) *ProgramData {
	t.Helper()
	ast, err := minic.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Compile(ast, ir.LangC, codegen.Default)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := Analyze(prog, ir.LangC, interp.Config{Input: input, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return pd
}

// loopy is a small corpus program whose loop branches are highly biased.
const loopy = `
int main() {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 200; i = i + 1) {
		if (i % 16 == 0) { s = s + 2; } else { s = s + 1; }
	}
	return s;
}`

// loopy2 shares the idioms of loopy with different constants.
const loopy2 = `
int main() {
	int j;
	int acc;
	acc = 1;
	for (j = 0; j < 150; j = j + 1) {
		if (j % 10 == 3) { acc = acc * 2; } else { acc = acc + 3; }
		if (acc > 100000) { acc = acc / 2; }
	}
	return acc;
}`

func TestAnalyzeAndExamples(t *testing.T) {
	pd := analyzeSrc(t, "loopy", loopy, nil)
	exs := pd.Examples()
	if len(exs) == 0 {
		t.Fatal("no training examples")
	}
	var totalW float64
	for _, e := range exs {
		if e.Target < 0 || e.Target > 1 {
			t.Errorf("target %g out of range", e.Target)
		}
		if e.Weight <= 0 {
			t.Errorf("weight %g must be positive for executed branches", e.Weight)
		}
		totalW += e.Weight
	}
	// Weights are normalized per program: executed sites sum to ~1.
	if totalW < 0.999 || totalW > 1.001 {
		t.Errorf("weights sum to %g, want 1", totalW)
	}
}

func TestTrainAndPredict(t *testing.T) {
	train := []*ProgramData{
		analyzeSrc(t, "a", loopy, nil),
		analyzeSrc(t, "b", loopy2, nil),
	}
	model := Train(train, Config{})
	if model.TrainStats.Epochs == 0 {
		t.Fatal("no training happened")
	}
	// The model must beat a coin on its own training programs.
	p := &Predictor{Model: model}
	for _, pd := range train {
		miss := heuristics.MissRate(pd.Sites, pd.Profile, p)
		if miss >= 0.5 {
			t.Errorf("%s: training-set miss %.2f not better than random", pd.Name, miss)
		}
	}
	// Probabilities are bounded.
	for _, v := range train[0].Vectors {
		prob := model.TakenProbability(v)
		if prob < 0 || prob > 1 {
			t.Errorf("probability %g out of range", prob)
		}
	}
}

func TestTreeClassifier(t *testing.T) {
	train := []*ProgramData{analyzeSrc(t, "a", loopy, nil)}
	model := Train(train, Config{Classifier: DecisionTree})
	if model.Tree == nil {
		t.Fatal("no tree built")
	}
	p := &Predictor{Model: model}
	miss := heuristics.MissRate(train[0].Sites, train[0].Profile, p)
	if miss >= 0.5 {
		t.Errorf("tree training-set miss %.2f", miss)
	}
	if p.Name() != "ESP(decision-tree)" {
		t.Errorf("predictor name = %q", p.Name())
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	train := []*ProgramData{analyzeSrc(t, "a", loopy, nil)}
	for _, cls := range []ClassifierKind{NeuralNet, DecisionTree} {
		model := Train(train, Config{Classifier: cls})
		var buf bytes.Buffer
		if err := model.Save(&buf); err != nil {
			t.Fatalf("%v: save: %v", cls, err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("%v: load: %v", cls, err)
		}
		for _, v := range train[0].Vectors {
			if a, b := model.TakenProbability(v), back.TakenProbability(v); a != b {
				t.Fatalf("%v: loaded model differs: %g vs %g", cls, a, b)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("Load accepted garbage")
	}
	if _, err := Load(bytes.NewReader([]byte("{}"))); err == nil {
		t.Error("Load accepted an empty model")
	}
}

// TestLoadRejectsInconsistentNet: a model file whose net does not fit
// together, or does not fit its encoder, fails at load time instead of
// panicking on the first prediction.
func TestLoadRejectsInconsistentNet(t *testing.T) {
	train := []*ProgramData{analyzeSrc(t, "a", loopy, nil)}
	model := Train(train, Config{})
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var file map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	// net builds a serialized net with the given shape and vector lengths.
	net := func(inputs, hidden, nb, nv int) json.RawMessage {
		w := make([][]float64, max(hidden, 0))
		for i := range w {
			w[i] = make([]float64, max(inputs, 0))
		}
		raw, err := json.Marshal(map[string]any{"inputs": inputs, "hidden": hidden,
			"w": w, "b": make([]float64, nb), "v": make([]float64, nv), "a": 0})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	d, h := model.Encoder.Dim, model.Net.Hidden
	for _, tc := range []struct {
		name string
		net  json.RawMessage
		ok   bool
	}{
		{"well-formed", net(d, h, h, h), true},
		{"short b", net(d, h, h-1, h), false},
		{"long b", net(d, h, h+1, h), false},
		{"short v", net(d, h, h, h-1), false},
		{"long v", net(d, h, h, h+1), false},
		{"zero hidden", net(d, 0, 0, 0), false},
		{"negative hidden", net(d, -1, 0, 0), false},
		{"negative inputs", net(-1, h, h, h), false},
		{"more inputs than encoder columns", net(d+1, h, h, h), false},
		{"fewer inputs than encoder columns", net(d-1, h, h, h), false},
	} {
		file["net"] = tc.net
		raw, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Load(bytes.NewReader(raw))
		if (err == nil) != tc.ok {
			t.Errorf("%s: Load error = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if err == nil {
			back.TakenProbability(train[0].Vectors[0])
		}
	}

	// A model trained with every feature hidden has a 0-column encoder and
	// a 0-input net; it stays loadable.
	all := make([]int, features.NumFeatures)
	for i := range all {
		all[i] = i
	}
	buf.Reset()
	if err := Train(train, Config{ExcludeFeatures: all}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err != nil {
		t.Errorf("0-input model: %v", err)
	}
}

func TestFeatureExclusion(t *testing.T) {
	train := []*ProgramData{analyzeSrc(t, "a", loopy, nil)}
	all := make([]int, features.NumFeatures)
	for i := range all {
		all[i] = i
	}
	model := Train(train, Config{ExcludeFeatures: all})
	// With every feature hidden the encoder sees only Unknowns: dim 0 and
	// constant predictions.
	if model.Encoder.Dim != 0 {
		t.Errorf("encoder dim = %d, want 0 with all features excluded", model.Encoder.Dim)
	}
	p0 := model.TakenProbability(train[0].Vectors[0])
	for _, v := range train[0].Vectors {
		if model.TakenProbability(v) != p0 {
			t.Error("blind model must predict a constant")
		}
	}
}

func TestUniformWeights(t *testing.T) {
	train := []*ProgramData{analyzeSrc(t, "a", loopy, nil)}
	a := Train(train, Config{})
	b := Train(train, Config{UniformWeights: true})
	// Both must train; the learned functions will generally differ.
	if a.TrainStats.Epochs == 0 || b.TrainStats.Epochs == 0 {
		t.Fatal("training failed")
	}
}

func TestCrossValidate(t *testing.T) {
	corpus := []*ProgramData{
		analyzeSrc(t, "a", loopy, nil),
		analyzeSrc(t, "b", loopy2, nil),
		analyzeSrc(t, "c", `
int main() {
	int i;
	int n;
	n = 0;
	for (i = 0; i < 120; i = i + 1) {
		if (i % 2 == 0) { n = n + 1; }
	}
	return n;
}`, nil),
	}
	folds := CrossValidate(corpus, Config{})
	if len(folds) != 3 {
		t.Fatalf("%d folds, want 3", len(folds))
	}
	names := map[string]bool{}
	for _, f := range folds {
		names[f.Held] = true
		if f.TrainPrograms != 2 {
			t.Errorf("fold %s trained on %d programs", f.Held, f.TrainPrograms)
		}
		if f.MissRate < 0 || f.MissRate > 1 {
			t.Errorf("fold %s miss %g", f.Held, f.MissRate)
		}
	}
	if len(names) != 3 {
		t.Error("folds must cover every program")
	}
	if m := MeanMiss(folds); m < 0 || m > 1 {
		t.Errorf("mean miss %g", m)
	}
	byName := MissByProgram(folds)
	if len(byName) != 3 {
		t.Errorf("MissByProgram = %v", byName)
	}
	// Determinism: same corpus, same config, same results.
	again := CrossValidate(corpus, Config{})
	for i := range folds {
		if folds[i].MissRate != again[i].MissRate {
			t.Error("cross-validation is not deterministic")
		}
	}
}

func TestPredictorAlwaysPredicts(t *testing.T) {
	pd := analyzeSrc(t, "a", loopy, nil)
	model := Train([]*ProgramData{pd}, Config{})
	p := &Predictor{Model: model}
	for _, s := range pd.Sites.Sites {
		if _, ok := p.PredictSite(s); !ok {
			t.Fatal("ESP must predict every branch")
		}
	}
	if p.Name() == "" {
		t.Error("empty predictor name")
	}
	p.Label = "custom"
	if p.Name() != "custom" {
		t.Error("label override ignored")
	}
}

// TestCrossValidateSerialParity: the parallel CrossValidate must match the
// serial reference fold-for-fold, bitwise. The fold-level caching of prepared
// examples and the fold goroutines must not perturb any result.
func TestCrossValidateSerialParity(t *testing.T) {
	corpus := []*ProgramData{
		analyzeSrc(t, "a", loopy, nil),
		analyzeSrc(t, "b", loopy2, nil),
		analyzeSrc(t, "c", `
int main() {
	int i;
	int n;
	n = 0;
	for (i = 0; i < 90; i = i + 1) {
		if (i % 3 == 0) { n = n + 2; }
	}
	return n;
}`, nil),
	}
	for _, cfg := range []Config{
		{},
		{Hidden: 8, Seed: 5},
		{UniformWeights: true},
		{ExcludeFeatures: []int{features.FBrOpcode}},
	} {
		par := CrossValidate(corpus, cfg)
		ser := CrossValidateSerial(corpus, cfg)
		if len(par) != len(ser) {
			t.Fatalf("fold counts differ: %d vs %d", len(par), len(ser))
		}
		for i := range par {
			if par[i] != ser[i] {
				t.Errorf("cfg %+v fold %d: parallel %+v vs serial %+v",
					cfg, i, par[i], ser[i])
			}
		}
	}
}
