package interp_test

// Corpus-wide differential coverage for the opt-in branch-outcome stream
// (RunTrace/RunReferenceTrace): over every corpus program plus a pinned
// generated slice, the stream must replay deterministically (same digest run
// to run), agree event for event between the micro-op and reference loops,
// and aggregate bit-identically to the Profile's counters and Calls. Runs
// under -race in CI via the interp entry of the race matrix.

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/gencorpus"
	"repro/internal/interp"
	"repro/internal/ir"
)

// traceGenSeed pins the generated slice of the stream differential; change
// it and the test exercises a different (still deterministic) slice.
const (
	traceGenSeed = 1995
	traceGenN    = 10
)

// diffTraced runs one program through both traced interpreters twice and
// asserts determinism, uop/reference stream equality, and exact aggregation.
func diffTraced(t *testing.T, name string, e corpus.Entry) {
	t.Helper()
	prog, err := e.Compile(codegen.Default)
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.RunConfig()
	cfg.CollectEdges = true

	var uop1, uop2, ref1 interp.TraceAggregate
	puop1, err := interp.RunTrace(prog, cfg, &uop1)
	if err != nil {
		t.Fatal(err)
	}
	puop2, err := interp.RunTrace(prog, cfg, &uop2)
	if err != nil {
		t.Fatal(err)
	}
	pref1, err := interp.RunReferenceTrace(prog, cfg, &ref1)
	if err != nil {
		t.Fatal(err)
	}

	// Deterministic replay: two micro-op runs produce the same stream.
	if uop1.Digest() != uop2.Digest() || uop1.Events() != uop2.Events() {
		t.Fatalf("%s: stream not deterministic: %016x/%d vs %016x/%d",
			name, uop1.Digest(), uop1.Events(), uop2.Digest(), uop2.Events())
	}
	// Event-for-event agreement between the two dispatch loops (the digest
	// is order-sensitive, so equal digests mean equal streams).
	if uop1.Digest() != ref1.Digest() || uop1.Events() != ref1.Events() {
		t.Fatalf("%s: uop stream %016x/%d events, reference %016x/%d",
			name, uop1.Digest(), uop1.Events(), ref1.Digest(), ref1.Events())
	}
	// Exact aggregation to Profile.Branches/CondExec on both paths.
	for _, chk := range []struct {
		agg  *interp.TraceAggregate
		prof *interp.Profile
	}{{&uop1, puop1}, {&uop2, puop2}, {&ref1, pref1}} {
		if err := chk.agg.Check(chk.prof); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// Tracing must not perturb the profile (including Calls): the traced
	// profiles must agree with each other and with an untraced run.
	plain, err := interp.Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	diffProfiles(t, name, puop1, pref1)
	diffProfiles(t, name, puop1, plain)
	for fn, n := range plain.Calls {
		if puop1.Calls[fn] != n || pref1.Calls[fn] != n {
			t.Fatalf("%s: calls diverge for %s: traced-uop %d traced-ref %d plain %d",
				name, fn, puop1.Calls[fn], pref1.Calls[fn], n)
		}
	}
	if len(plain.Calls) != len(puop1.Calls) || len(plain.Calls) != len(pref1.Calls) {
		t.Fatalf("%s: call maps diverge in size", name)
	}
}

// TestCorpusTraceStreamDifferential covers all 46 corpus programs.
func TestCorpusTraceStreamDifferential(t *testing.T) {
	armAllSites(t)
	entries := corpus.All()
	if len(entries) < 46 {
		t.Fatalf("corpus has %d programs, expected the full 46", len(entries))
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			diffTraced(t, e.Name, e)
		})
	}
}

// TestGenTraceStreamDifferential covers the pinned generated slice.
func TestGenTraceStreamDifferential(t *testing.T) {
	armAllSites(t)
	spec := gencorpus.Spec{Seed: traceGenSeed, N: traceGenN, Opt: gencorpus.Options{Prints: true}}
	for _, e := range spec.Entries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			diffTraced(t, e.Name, e)
		})
	}
}

// TestTraceCheckBranchFree: a program with no conditional branch has an
// empty site table, and Check must still accept its (empty) stream on both
// traced paths.
func TestTraceCheckBranchFree(t *testing.T) {
	main := &ir.Func{Name: "main", Language: ir.LangC, Blocks: []*ir.Block{
		{ID: 0, Insns: []ir.Instr{{Op: ir.OpRet}}},
	}}
	prog := &ir.Program{Name: "ret", Funcs: []*ir.Func{main}}
	for name, run := range map[string]func(*ir.Program, interp.Config, interp.TraceSink) (*interp.Profile, error){
		"RunTrace":          interp.RunTrace,
		"RunReferenceTrace": interp.RunReferenceTrace,
	} {
		var agg interp.TraceAggregate
		prof, err := run(prog, interp.Config{}, &agg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := agg.Check(prof); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	var unbegun interp.TraceAggregate
	if unbegun.Check(&interp.Profile{}) == nil {
		t.Error("Check passed before BeginTrace")
	}
}
