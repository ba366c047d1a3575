package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/gencorpus"
	"repro/internal/hwsim"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/pgo"
)

// optGenN is the generated slice optimized beside the 46 corpus programs.
const optGenN = 30

// Simulated cycles of the 46 corpus programs, unguided and guided by the
// heuristic source (the guided-optimization study's totals).
const (
	corpusUnguidedCycles  = 227522200
	corpusHeuristicCycles = 215097466
)

// coSim fans the guided binary's branch stream out to hint-seeded 2-bit,
// gshare and TAGE counters and to an aggregate that must match the
// profile. It implements interp.TraceSink.
type coSim struct {
	sites *features.ProgramSites
	mux   hwsim.Mux
	agg   interp.TraceAggregate
}

func (s *coSim) BeginTrace(refs []ir.BranchRef) {
	hints := hwsim.Hints(pgo.NewHeuristic(), s.sites, refs)
	n := len(refs)
	s.mux.Counters = []*hwsim.Counter{
		hwsim.NewCounter(hwsim.NewTwoBit(n, hints)),
		hwsim.NewCounter(hwsim.NewGshare(0, hints)),
		hwsim.NewCounter(hwsim.NewTage(n, hints)),
	}
	s.mux.BeginTrace(refs)
	s.agg.BeginTrace(refs)
}

func (s *coSim) TraceBranch(site int32, taken bool) {
	s.mux.TraceBranch(site, taken)
	s.agg.TraceBranch(site, taken)
}

// optProgram is one program's result in one pass.
type optProgram struct {
	Lat                  float64 // ms for the whole op
	Unguided, Guided     int64   // simulated cycles
	Guide                *ir.Program
	Run                  interp.Config
	Events               int64
	GuidedRun, TracedRun time.Duration
	Insns                int
	ParseBytes           int
	Err                  error
}

func optimizeOne(tr *Tracer, e corpus.Entry) (r optProgram) {
	t0 := time.Now()
	root := tr.Start("optimize.program", 0, e.Name)
	defer func() {
		root.End()
		r.Lat = float64(time.Since(t0)) / 1e6
	}()
	id := root.ID()
	opt := pgo.DefaultOptions()
	run := e.RunConfig()
	run.CollectEdges = true
	r.Run = run

	sp := tr.Start("minic.parse", id, e.Name)
	ast, err := e.Parse()
	sp.End()
	if err != nil {
		r.Err = err
		return r
	}
	r.ParseBytes = len(e.Source) + len(corpus.StdlibSource) + len(corpus.Stdlib2Source)
	sp = tr.Start("pgo.unguided", id, e.Name)
	unguided, err := pgo.Unguided(ast, e.Language, opt)
	sp.End()
	if err != nil {
		r.Err = fmt.Errorf("unguided: %w", err)
		return r
	}
	sp = tr.Start("pgo.optimize", id, e.Name)
	guided, err := pgo.Optimize(ast, e.Language, pgo.Fixed(pgo.NewHeuristic()), opt)
	sp.End()
	if err != nil {
		r.Err = fmt.Errorf("optimize: %w", err)
		return r
	}
	r.Guide = guided
	r.Insns = guided.NumInsns()

	sp = tr.Start("interp.run_edges", id, e.Name)
	baseProf, err := interp.Run(unguided, run)
	sp.End()
	if err != nil {
		r.Err = fmt.Errorf("unguided run: %w", err)
		return r
	}
	sp = tr.Start("interp.run_edges", id, e.Name)
	prof, err := interp.Run(guided, run)
	r.GuidedRun = sp.End()
	if err != nil {
		r.Err = fmt.Errorf("guided run: %w", err)
		return r
	}
	if !sameBehaviour(prof, baseProf) {
		r.Err = fmt.Errorf("guided binary's outputs differ from the unguided one's")
		return r
	}
	for _, c := range []struct {
		p    *ir.Program
		prof *interp.Profile
		dst  *int64
	}{{unguided, baseProf, &r.Unguided}, {guided, prof, &r.Guided}} {
		sp = tr.Start("interp.cyclecount", id, e.Name)
		*c.dst, err = interp.CycleCount(c.p, c.prof)
		sp.End()
		if err != nil {
			r.Err = fmt.Errorf("cycles: %w", err)
			return r
		}
	}

	sp = tr.Start("features.collect", id, e.Name)
	sink := &coSim{sites: features.Collect(guided)}
	sp.End()
	sp = tr.Start("interp.run_traced", id, e.Name)
	tprof, err := interp.RunTrace(guided, run, sink)
	r.TracedRun = sp.End()
	if err != nil {
		r.Err = fmt.Errorf("traced run: %w", err)
		return r
	}
	if err := sink.agg.Check(tprof); err != nil {
		r.Err = fmt.Errorf("trace aggregate: %w", err)
		return r
	}
	for _, c := range sink.mux.Counters {
		if c.Events != tprof.CondExec {
			r.Err = fmt.Errorf("%s saw %d events, profile has %d", c.Pred.Name(), c.Events, tprof.CondExec)
			return r
		}
	}
	if !sameBehaviour(tprof, prof) {
		r.Err = fmt.Errorf("traced run's outputs differ from the plain run's")
		return r
	}
	r.Events = tprof.CondExec
	return r
}

// optPass optimizes every program once with b.Workers workers.
type optPass struct {
	Wall     time.Duration
	Programs []optProgram
}

func runOptPass(workers int, tr *Tracer, entries []corpus.Entry) optPass {
	p := optPass{Programs: make([]optProgram, len(entries))}
	next := atomic.Int64{}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(entries) {
					return
				}
				p.Programs[i] = optimizeOne(tr, entries[i])
			}
		}()
	}
	wg.Wait()
	p.Wall = time.Since(start)
	return p
}

func runOptimize(b *Bench) (*Outcome, error) {
	out := newOutcome()
	spec := gencorpus.Spec{Seed: b.Seed, N: optGenN, Opt: gencorpus.Options{Prints: true}}
	entries, setup, err := timeSetup(25, func() ([]corpus.Entry, error) {
		return append(corpus.All(), genEntries(b.Tr, spec)...), nil
	}, nil)
	if err != nil {
		return nil, err
	}
	out.E2E["setup_s"] = setup
	nCorpus := len(corpus.All())

	n := 0
	untraced, traced, err := repeat(b, func(tr *Tracer) (optPass, error) {
		p := runOptPass(b.Workers, tr, entries)
		if n++; n > 1 {
			for i := range p.Programs {
				p.Programs[i].Guide = nil // only the first pass's are checked
			}
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	passes := append(untraced, traced...)

	// The generated slice's expected cycles come from the reference
	// interpreter, run once on the first pass's guided binaries.
	first := passes[0].Programs
	var wantGen int64
	for _, r := range first[nCorpus:] {
		if r.Err != nil {
			continue
		}
		prof, err := interp.RunReference(r.Guide, r.Run)
		if err == nil {
			var c int64
			if c, err = interp.CycleCount(r.Guide, prof); err == nil {
				wantGen += c
			}
		}
		if err != nil {
			out.Fail("reference run: %v", err)
		}
	}
	var saving float64
	for pi, p := range passes {
		var unguided, heuristic, gen int64
		for i, r := range p.Programs {
			out.Attempted++
			if r.Err != nil {
				out.Failed++
				out.Fail("pass %d %s: %v", pi, entries[i].Name, r.Err)
				continue
			}
			if i < nCorpus {
				unguided += r.Unguided
				heuristic += r.Guided
			} else {
				gen += r.Guided
			}
		}
		if unguided != corpusUnguidedCycles || heuristic != corpusHeuristicCycles {
			out.Fail("pass %d: corpus cycles unguided %d heuristic %d, want %d and %d",
				pi, unguided, heuristic, corpusUnguidedCycles, corpusHeuristicCycles)
		}
		if gen != wantGen {
			out.Fail("pass %d: generated heuristic cycles %d, reference interpreter gives %d", pi, gen, wantGen)
		}
		saving = 1 - float64(heuristic)/float64(unguided)
	}

	var rate, lat []float64
	for _, p := range untraced {
		rate = append(rate, float64(len(entries))/p.Wall.Seconds())
		for _, r := range p.Programs {
			lat = append(lat, r.Lat)
		}
	}
	out.Line("optimize_programs_per_s", MedianValue(rate), "1/s",
		fmt.Sprintf("median of %d passes, %d programs each", len(untraced), len(entries)))
	out.Line("heuristic_cycle_saving", saving, "ratio", "46 corpus programs")
	p50, tail := Median(lat), TailAt(lat, 90)
	out.Quantile("program_p50_ms", p50)
	out.Quantile("program_tail_ms", tail)
	out.E2E["throughput_per_s"] = MedianValue(rate)
	out.E2E["p50_ms"] = p50.Value
	out.E2E["tail_ms"] = tail.Value
	if b.Tr != nil {
		optimizeLayers(b, out, entries, untraced, traced)
	}
	return out, nil
}

func optimizeLayers(b *Bench, out *Outcome, entries []corpus.Entry, untraced, traced []optPass) {
	// A plain compile of each program, for the compile layer alone.
	for _, e := range entries {
		ast, err := e.Parse()
		if err != nil {
			continue
		}
		sp := b.Tr.Start("codegen.compile", 0, e.Name)
		_, err = codegen.Compile(ast, e.Language, codegen.Default)
		sp.End()
		if err != nil {
			out.Fail("compile %s: %v", e.Name, err)
		}
	}
	ss := NewSpanSet(b.Tr.Spans())
	var events, insns, parseBytes int64
	var plain, tracedRun time.Duration
	n := 0
	for _, p := range traced {
		for _, r := range p.Programs {
			events += r.Events
			insns += int64(r.Insns)
			parseBytes += int64(r.ParseBytes)
			plain += r.GuidedRun
			tracedRun += r.TracedRun
			n++
		}
	}
	parse := ss.SelfMicros("minic.parse")
	L := out.Layers
	L["gencorpus.generate_us"] = Median(ss.SelfMicros("gencorpus.generate")).Value
	L["minic.parse_us"] = Median(parse).Value
	L["minic.parse_bytes_per_us"] = ratio(float64(parseBytes), sum(parse))
	L["codegen.compile_us"] = Median(ss.SelfMicros("codegen.compile")).Value
	L["codegen.ir_instrs"] = ratio(float64(insns), float64(n))
	L["pgo.unguided_us"] = Median(ss.SelfMicros("pgo.unguided")).Value
	L["pgo.optimize_us"] = Median(ss.SelfMicros("pgo.optimize")).Value
	L["interp.run_edges_us"] = Median(ss.SelfMicros("interp.run_edges")).Value
	L["interp.cyclecount_us"] = Median(ss.SelfMicros("interp.cyclecount")).Value
	L["interp.run_traced_us"] = Median(ss.SelfMicros("interp.run_traced")).Value
	L["interp.trace_overhead_ratio"] = ratio(float64(tracedRun), float64(plain))
	L["hwsim.events"] = ratio(float64(events), float64(len(traced)))
	L["hwsim.ns_per_event"] = ratio(float64(tracedRun-plain), float64(events))
	var u, t []float64
	for _, p := range untraced {
		u = append(u, p.Wall.Seconds())
	}
	for _, p := range traced {
		t = append(t, p.Wall.Seconds())
	}
	L["trace.overhead_ratio"] = MedianValue(t)/MedianValue(u) - 1
}
