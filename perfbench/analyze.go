package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/gencorpus"
	"repro/internal/interp"
)

// analyzeGenN is the size of the generated slice analyzed beside the 43
// study programs: large enough that one cold+warm+peer cycle takes a few
// seconds on two cores, so a run holds several cycles.
const analyzeGenN = 300

// genEntries generates a seeded corpus slice, one span per program.
func genEntries(tr *Tracer, spec gencorpus.Spec) []corpus.Entry {
	out := make([]corpus.Entry, spec.N)
	for i := range out {
		sp := tr.Start("gencorpus.generate", 0, "")
		p := spec.Program(i)
		sp.End()
		out[i] = p.Entry()
	}
	return out
}

// analyzePass is one pass over the programs through one cache.
type analyzePass struct {
	Wall    time.Duration
	Lat     []float64 // ms per program: parse + compile + AnalyzeCached
	Digests []Digest
	Failed  int64
	Errs    []string
	Runs    int64 // interpreter executions started during the pass
	// Loads and Hits count cache loads, in traced passes only.
	Loads, Hits int64
}

// passCache adapts a cache so the traced run sees each load and store as
// a span under the program's AnalyzeCached span.
type passCache struct {
	inner    core.AnalysisCache
	tr       *Tracer
	loadName string
	parent   int64
	req      string
	loads    *atomic.Int64
	hits     *atomic.Int64
}

// analyzeCounts are totals over the traced passes.
type analyzeCounts struct{ parseBytes, irInstrs atomic.Int64 }

func (c *passCache) Load(key string) (*artifact.Record, bool) {
	sp := c.tr.Start(c.loadName, c.parent, c.req)
	rec, ok := c.inner.Load(key)
	sp.End()
	c.loads.Add(1)
	if ok {
		c.hits.Add(1)
	}
	return rec, ok
}

func (c *passCache) Store(key string, rec *artifact.Record) error {
	sp := c.tr.Start("artifact.store", c.parent, c.req)
	err := c.inner.Store(key, rec)
	sp.End()
	return err
}

// runPass analyzes every entry through cache with b.Workers workers.
// loadName labels the cache's loads in the trace.
func runPass(b *Bench, pass string, entries []corpus.Entry, cache core.AnalysisCache, loadName string, cnt *analyzeCounts) analyzePass {
	res := analyzePass{
		Lat:     make([]float64, len(entries)),
		Digests: make([]Digest, len(entries)),
	}
	errs := make([]error, len(entries))
	var next, loads, hits atomic.Int64
	runs0 := interp.TotalRuns()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < b.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pc := &passCache{inner: cache, tr: b.Tr, loadName: loadName, loads: &loads, hits: &hits}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(entries) {
					return
				}
				e := entries[i]
				t0 := time.Now()
				root := b.Tr.Start("analyze.program", 0, pass+":"+e.Name)
				pc.req = pass + ":" + e.Name
				sp := b.Tr.Start("minic.parse", root.ID(), pc.req)
				ast, err := e.Parse()
				sp.End()
				if err != nil {
					errs[i] = err
					root.End()
					continue
				}
				sp = b.Tr.Start("codegen.compile", root.ID(), pc.req)
				prog, err := codegen.Compile(ast, e.Language, codegen.Default)
				sp.End()
				if err != nil {
					errs[i] = err
					root.End()
					continue
				}
				sp = b.Tr.Start("core.analyze_cached", root.ID(), pc.req)
				pc.parent = sp.ID()
				var c core.AnalysisCache = cache
				if b.Tr != nil {
					c = pc
					cnt.parseBytes.Add(int64(len(e.Source) + len(corpus.StdlibSource) + len(corpus.Stdlib2Source)))
					cnt.irInstrs.Add(int64(prog.NumInsns()))
				}
				pd, err := core.AnalyzeCached(c, prog, e.Language, e.RunConfig())
				sp.End()
				root.End()
				res.Lat[i] = float64(time.Since(t0)) / 1e6
				if err != nil {
					errs[i] = err
					continue
				}
				res.Digests[i] = recordDigest(pd.Profile, pd.Vectors)
			}
		}()
	}
	wg.Wait()
	res.Wall = time.Since(start)
	res.Runs = interp.TotalRuns() - runs0
	res.Loads, res.Hits = loads.Load(), hits.Load()
	for i, err := range errs {
		if err != nil {
			res.Failed++
			res.Errs = append(res.Errs, fmt.Sprintf("%s pass %s: %v", pass, entries[i].Name, err))
		}
	}
	return res
}

// peerCounters counts peer-cache outcomes (cluster.Counters).
type peerCounters struct{ hits, misses atomic.Int64 }

func (c *peerCounters) PeerHit()  { c.hits.Add(1) }
func (c *peerCounters) PeerMiss() { c.misses.Add(1) }
func (c *peerCounters) Failover() {}

// analyzeCycle is one cold, warm and peer pass.
type analyzeCycle struct {
	Cold, Warm, Peer analyzePass
	CacheBytes       int64
	PeerHits, PeerN  int64
}

func runCycle(b *Bench, entries []corpus.Entry, n int, cnt *analyzeCounts) (analyzeCycle, error) {
	var cyc analyzeCycle
	coldDir := filepath.Join(b.Dir, fmt.Sprintf("cold-%d", n))
	peerDir := filepath.Join(b.Dir, fmt.Sprintf("peer-%d", n))
	defer os.RemoveAll(coldDir)
	defer os.RemoveAll(peerDir)

	cold, err := artifact.Open(coldDir)
	if err != nil {
		return cyc, err
	}
	cyc.Cold = runPass(b, "cold", entries, cold, "artifact.load_miss", cnt)
	if cyc.CacheBytes, err = dirBytes(coldDir); err != nil {
		return cyc, err
	}

	cyc.Warm = runPass(b, "warm", entries, cold, "artifact.load", cnt)

	// The peer serves the warm cache over loopback; the pass reads through
	// an empty local cache that installs what the peer sends.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return cyc, err
	}
	srv := &http.Server{Handler: cluster.NewPeerCache(cold, cluster.PeerCacheConfig{}).Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	local, err := artifact.Open(peerDir)
	if err == nil {
		var pcnt peerCounters
		pc := cluster.NewPeerCache(local, cluster.PeerCacheConfig{
			Peers:    []string{"http://" + ln.Addr().String()},
			Counters: &pcnt,
		})
		cyc.Peer = runPass(b, "peer", entries, pc, "cluster.peer_fetch", cnt)
		cyc.PeerHits, cyc.PeerN = pcnt.hits.Load(), pcnt.hits.Load()+pcnt.misses.Load()
	}
	srv.Close()
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return cyc, err
}

func dirBytes(dir string) (int64, error) {
	var total int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

func runAnalyze(b *Bench) (*Outcome, error) {
	out := newOutcome()
	spec := gencorpus.Spec{Seed: b.Seed, N: analyzeGenN}
	entries, setup, err := timeSetup(25, func() ([]corpus.Entry, error) {
		return append(corpus.Study(), genEntries(b.Tr, spec)...), nil
	}, nil)
	if err != nil {
		return nil, err
	}
	out.E2E["setup_s"] = setup

	var cnt analyzeCounts
	n := 0
	untraced, traced, err := repeat(b, func(tr *Tracer) (analyzeCycle, error) {
		bb := *b
		bb.Tr = tr
		n++
		return runCycle(&bb, entries, n, &cnt)
	})
	if err != nil {
		return nil, err
	}
	analyzeChecks(out, append(untraced, traced...), len(entries))
	if b.Tr == nil {
		analyzeE2E(out, untraced, len(entries))
		return out, nil
	}
	out.Layers["trace.overhead_ratio"] = cycleWall(traced)/cycleWall(untraced) - 1
	analyzeLayers(b, out, entries, traced, &cnt)
	return out, nil
}

// cycleWall is the median wall time of one whole cycle.
func cycleWall(cycles []analyzeCycle) float64 {
	var w []float64
	for _, c := range cycles {
		w = append(w, (c.Cold.Wall + c.Warm.Wall + c.Peer.Wall).Seconds())
	}
	return MedianValue(w)
}

func analyzeChecks(out *Outcome, cycles []analyzeCycle, n int) {
	for ci, c := range cycles {
		for _, p := range []*analyzePass{&c.Cold, &c.Warm, &c.Peer} {
			out.Attempted += int64(n)
			out.Failed += p.Failed
			for _, e := range p.Errs {
				out.Fail("%s", e)
			}
		}
		for i := 0; i < n; i++ {
			if c.Warm.Digests[i] != c.Cold.Digests[i] || c.Peer.Digests[i] != c.Cold.Digests[i] {
				out.Failed++
				out.Fail("cycle %d program %d: warm or peer record differs from the cold one", ci, i)
			}
			if c.Cold.Digests[i] != cycles[0].Cold.Digests[i] {
				out.Failed++
				out.Fail("cycle %d program %d: cold record differs from the first cycle", ci, i)
			}
		}
		if c.Warm.Runs != 0 || c.Peer.Runs != 0 {
			out.Fail("cycle %d: interpreter ran %d times in the warm pass and %d in the peer pass", ci, c.Warm.Runs, c.Peer.Runs)
		}
	}
}

func analyzeE2E(out *Outcome, cycles []analyzeCycle, n int) {
	var rate, cold, warm, peer, lat []float64
	for _, c := range cycles {
		rate = append(rate, float64(3*n)/(c.Cold.Wall+c.Warm.Wall+c.Peer.Wall).Seconds())
		cold = append(cold, float64(n)/c.Cold.Wall.Seconds())
		warm = append(warm, float64(n)/c.Warm.Wall.Seconds())
		peer = append(peer, float64(n)/c.Peer.Wall.Seconds())
		lat = append(append(append(lat, c.Cold.Lat...), c.Warm.Lat...), c.Peer.Lat...)
	}
	note := fmt.Sprintf("median of %d cycles, %d programs each", len(cycles), n)
	out.Line("analyze_cold_programs_per_s", MedianValue(cold), "1/s", note)
	out.Line("analyze_warm_programs_per_s", MedianValue(warm), "1/s", note)
	out.Line("analyze_peer_programs_per_s", MedianValue(peer), "1/s", note)
	out.E2E["throughput_per_s"] = MedianValue(rate)
	p50, tail := Median(lat), TailAt(lat, 99)
	out.Quantile("program_p50_ms", p50)
	out.Quantile("program_tail_ms", tail)
	out.E2E["p50_ms"] = p50.Value
	out.E2E["tail_ms"] = tail.Value
}

func analyzeLayers(b *Bench, out *Outcome, entries []corpus.Entry, cycles []analyzeCycle, cnt *analyzeCounts) {
	// Probe the layers AnalyzeCached calls internally on the first cycle's
	// programs: one interpreter run and one featurization each.
	var insns int64
	var sites int
	for i, e := range entries {
		ast, err := e.Parse()
		if err != nil {
			continue
		}
		prog, err := codegen.Compile(ast, e.Language, codegen.Default)
		if err != nil {
			continue
		}
		sp := b.Tr.Start("interp.run", 0, "probe:"+e.Name)
		prof, err := interp.Run(prog, e.RunConfig())
		sp.End()
		if err != nil {
			out.Fail("probe %s: %v", e.Name, err)
			continue
		}
		sp = b.Tr.Start("features.featurize", 0, "probe:"+e.Name)
		vecs := features.ExtractAll(features.Collect(prog))
		sp.End()
		if recordDigest(prof, vecs) != cycles[0].Cold.Digests[i] {
			out.Fail("probe %s: direct interp+featurize differs from AnalyzeCached", e.Name)
		}
		insns += prof.Insns
		sites += len(vecs)
	}

	ss := NewSpanSet(b.Tr.Spans())
	L := out.Layers
	L["gencorpus.generate_us"] = Median(ss.SelfMicros("gencorpus.generate")).Value
	parse := ss.SelfMicros("minic.parse")
	L["minic.parse_us"] = Median(parse).Value
	L["minic.parse_bytes_per_us"] = ratio(float64(cnt.parseBytes.Load()), sum(parse))
	L["codegen.compile_us"] = Median(ss.SelfMicros("codegen.compile")).Value
	L["codegen.ir_instrs"] = ratio(float64(cnt.irInstrs.Load()), float64(len(parse)))
	run := ss.SelfMicros("interp.run")
	L["interp.run_us"] = Median(run).Value
	L["interp.insns_per_us"] = ratio(float64(insns), sum(run))
	L["features.featurize_us"] = Median(ss.SelfMicros("features.featurize")).Value
	L["features.sites"] = ratio(float64(sites), float64(len(entries)))
	L["artifact.store_us"] = Median(ss.SelfMicros("artifact.store")).Value
	L["artifact.load_us"] = Median(ss.SelfMicros("artifact.load")).Value
	L["cluster.peer_fetch_us"] = Median(ss.SelfMicros("cluster.peer_fetch")).Value

	var warmRuns, wl, wh, peerHits, peerN, bytes int64
	for _, c := range cycles {
		warmRuns += c.Warm.Runs
		wl += c.Warm.Loads
		wh += c.Warm.Hits
		peerHits += c.PeerHits
		peerN += c.PeerN
		bytes += c.CacheBytes
	}
	L["interp.runs_warm"] = float64(warmRuns)
	L["artifact.hit_ratio"] = ratio(float64(wh), float64(wl))
	L["artifact.bytes_per_program"] = ratio(float64(bytes), float64(len(cycles)*len(entries)))
	L["cluster.peer_hit_ratio"] = ratio(float64(peerHits), float64(peerN))
	analyzeE2E(out, cycles, len(entries))
}
