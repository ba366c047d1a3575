package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/gencorpus"
	"repro/internal/guard"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/serve"
)

const (
	serveClients = 2  // closed loop, one per core
	hotSources   = 32 // repeated sources: few enough to stay in the LRU
	// The server's default compile budgets, which the offline reference
	// compile of a submitted source must match.
	serveParseDepth = 256
	serveCFGBlocks  = 16384
)

// Request classes of the serve mix.
const (
	classVec = iota
	classHot
	classCold
	numClasses
)

var classNames = [numClasses]string{"vec", "src_hot", "src_cold"}

// Load phases: a short warm-up, the untraced loop a traced run compares
// against, and the measured loop. Each draws its own inputs.
const (
	phaseWarm = iota
	phaseBase
	phaseLoad
)

var phaseNames = []string{"warm", "base", "load"}

// expected is the offline answer to one request.
type expected struct {
	branches []string
	probs    []float64
}

// cluster is the serving stack of one set-up: two replicas behind a router,
// all on loopback in this process.
type serveStack struct {
	replicas []*serve.Server
	urls     []string
	servers  []*http.Server
	served   []chan error
	router   string
	failover atomic.Int64
	tr       *Tracer
	tracing  atomic.Bool
}

func (c *serveStack) Failover() { c.failover.Add(1) }
func (c *serveStack) PeerHit()  {}
func (c *serveStack) PeerMiss() {}

// listen serves h on a loopback port and returns its base URL.
func (c *serveStack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	c.servers = append(c.servers, srv)
	c.served = append(c.served, done)
	return "http://" + ln.Addr().String(), nil
}

// close shuts every listener down, then drains the replicas' pools.
func (c *serveStack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first error
	for i, srv := range c.servers {
		if err := srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		if err := <-c.served[i]; !errors.Is(err, http.ErrServerClosed) && first == nil {
			first = err
		}
	}
	for _, s := range c.replicas {
		if err := s.Drain(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// traced records a span per /predict while tracing is on, joined to the
// client's span by the request body's id field.
func (c *serveStack) traced(name string, h http.Handler) http.Handler {
	if c.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !c.tracing.Load() || r.URL.Path != "/predict" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		sp := c.tr.Start(name, 0, requestID(body))
		h.ServeHTTP(w, r)
		sp.End()
	})
}

// requestID extracts the "id" string of a JSON request body.
func requestID(body []byte) string {
	const key = `"id":"`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return ""
	}
	rest := body[i+len(key):]
	if j := bytes.IndexByte(rest, '"'); j >= 0 {
		return string(rest[:j])
	}
	return ""
}

// serveModels trains and calibrates the serving model once, as espserve
// -train -quant does, and returns its saved form.
func serveModels(tr *Tracer, data []*core.ProgramData) ([]byte, error) {
	sp := tr.Start("core.train", 0, "setup")
	m := core.Train(data, core.Config{})
	sp.End()
	sp = tr.Start("core.calibrate", 0, "setup")
	_, err := core.CalibrateQuant(m, data, nil)
	sp.End()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func loadModel(saved []byte, quant bool) (*core.Model, error) {
	m, err := core.Load(bytes.NewReader(saved))
	if err != nil {
		return nil, err
	}
	if quant {
		err = m.EnableQuant()
	}
	return m, err
}

// serveSetup is everything the measured loop needs.
type serveSetup struct {
	stack   *serveStack
	ref     *core.Model // offline reference, int8 like the replicas
	saved   []byte
	vecs    [][][]string // per study program, its feature vectors
	vecWant []expected
	hot     []string // sources
	hotWant []expected
}

// buildServe analyzes the study corpus, trains the model and starts the
// stack, as a replica started with espserve -train -quant would.
func buildServe(b *Bench) (*serveSetup, error) {
	data, err := analyzeAll(corpus.Study())
	if err != nil {
		return nil, err
	}
	saved, err := serveModels(b.Tr, data)
	if err != nil {
		return nil, err
	}
	st := &serveSetup{stack: &serveStack{tr: b.Tr}, saved: saved}
	if err := st.fill(b, data); err != nil {
		st.stack.close()
		return nil, err
	}
	return st, nil
}

// fill starts two replicas and the router, and computes the offline
// answers the load is checked against. On error the caller closes the
// stack.
func (st *serveSetup) fill(b *Bench, data []*core.ProgramData) error {
	for i := 0; i < 2; i++ {
		m, err := loadModel(st.saved, true)
		if err != nil {
			return err
		}
		s, err := serve.New(serve.Config{Model: m})
		if err != nil {
			return err
		}
		st.stack.replicas = append(st.stack.replicas, s)
		u, err := st.stack.listen(st.stack.traced("serve.replica", s.Handler()))
		if err != nil {
			return err
		}
		st.stack.urls = append(st.stack.urls, u)
	}
	var reps []*cluster.Replica
	for i, u := range st.stack.urls {
		r := &cluster.Replica{Name: fmt.Sprintf("replica-%d", i)}
		r.SetURL(u)
		reps = append(reps, r)
	}
	router := cluster.NewRouter(cluster.RouterConfig{Counters: st.stack}, reps...)
	var err error
	if st.stack.router, err = st.stack.listen(st.stack.traced("cluster.router", router)); err != nil {
		return err
	}
	if st.ref, err = loadModel(st.saved, true); err != nil {
		return err
	}
	for _, pd := range data {
		rows := make([][]string, len(pd.Vectors))
		want := expected{probs: make([]float64, len(pd.Vectors))}
		for i, v := range pd.Vectors {
			rows[i] = append([]string(nil), v.Values[:]...)
			want.branches = append(want.branches, "#"+strconv.Itoa(i))
		}
		st.ref.TakenProbabilities(pd.Vectors, want.probs)
		st.vecs = append(st.vecs, rows)
		st.vecWant = append(st.vecWant, want)
	}
	for i := 0; i < hotSources; i++ {
		p := gencorpus.Generate(b.Seed*7919+int64(i), gencorpus.AllMixes()[i%len(gencorpus.AllMixes())])
		want, err := offlinePredict(nil, st.ref, p.Source, "")
		if err != nil {
			return err
		}
		st.hot = append(st.hot, p.Source)
		st.hotWant = append(st.hotWant, want)
	}
	return nil
}

// offlinePredict compiles a submitted source the way a replica does and
// predicts it with the reference model.
func offlinePredict(tr *Tracer, ref *core.Model, src, req string) (expected, error) {
	root := tr.Start("serve.src_compile", 0, req)
	defer root.End()
	sp := tr.Start("minic.parse", root.ID(), req)
	ast, err := minic.ParseWithLimits("query", src+corpus.StdlibSource+corpus.Stdlib2Source, minic.Limits{MaxDepth: serveParseDepth})
	sp.End()
	if err != nil {
		return expected{}, err
	}
	sp = tr.Start("codegen.compile", root.ID(), req)
	prog, err := codegen.CompileBounded(ast, ir.LangC, codegen.Default, guard.Limits{CFGBlocks: serveCFGBlocks})
	sp.End()
	if err != nil {
		return expected{}, err
	}
	sp = tr.Start("features.featurize", root.ID(), req)
	ps := features.Collect(prog)
	vecs := features.ExtractAll(ps)
	sp.End()
	want := expected{probs: make([]float64, len(vecs))}
	for _, s := range ps.Sites {
		want.branches = append(want.branches, s.Ref.String())
	}
	ref.TakenProbabilities(vecs, want.probs)
	return want, nil
}

// countingTransport counts HTTP attempts, retries included.
type countingTransport struct {
	base     http.RoundTripper
	attempts atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.attempts.Add(1)
	return t.base.RoundTrip(r)
}

// sample is one completed request.
type sample struct {
	class    int
	ms       float64
	attempts int64
	failed   bool
	// cold requests are checked after the loop
	coldSeed int64
	resp     *serve.PredictResponse
}

func coldProgram(seed int64) gencorpus.Program {
	mixes := gencorpus.AllMixes()
	return gencorpus.Generate(seed, mixes[int(uint64(seed)%uint64(len(mixes)))])
}

// clientLoop is one closed-loop caller: it sends its next request only
// after the previous reply.
func clientLoop(b *Bench, st *serveSetup, c, phase int, stop time.Time) ([]sample, int64, []string) {
	conn := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer conn.CloseIdleConnections()
	tp := &countingTransport{base: conn}
	cl := serve.NewClient(st.stack.router, serve.ClientConfig{HTTP: &http.Client{Transport: tp}, Seed: b.Seed + int64(c)})
	rng := rand.New(rand.NewSource(b.Seed*1_000_003 + int64(phase)*101 + int64(c)))
	var out []sample
	var bad []string
	for i := 0; time.Now().Before(stop); i++ {
		var s sample
		var want *expected
		req := &serve.PredictRequest{}
		switch k := rng.Intn(4); {
		case k < 2:
			s.class = classVec
			p := rng.Intn(len(st.vecs))
			req.Vectors = st.vecs[p]
			want = &st.vecWant[p]
		case k == 2:
			s.class = classHot
			h := rng.Intn(len(st.hot))
			req.Source, req.LinkStdlib = st.hot[h], true
			want = &st.hotWant[h]
		default:
			s.class = classCold
			s.coldSeed = rng.Int63()
			req.Source, req.LinkStdlib = coldProgram(s.coldSeed).Source, true
		}
		req.ID = fmt.Sprintf("%s-%s-%d-%d", phaseNames[phase], classNames[s.class], c, i)
		sp := b.Tr.Start("serve.client", 0, req.ID)
		a0 := tp.attempts.Load()
		t0 := time.Now()
		resp, err := cl.Predict(context.Background(), req)
		s.ms = float64(time.Since(t0)) / 1e6
		sp.End()
		s.attempts = tp.attempts.Load() - a0
		// An error, a degraded answer or one that needed a retry fails the
		// request; a wrong answer also fails the run's output check.
		switch {
		case err != nil:
			s.failed = true
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", req.ID, err)
		case resp.ID != req.ID:
			s.failed = true
			bad = append(bad, fmt.Sprintf("%s: answered as %q", req.ID, resp.ID))
		case resp.Degraded || s.attempts > 1:
			s.failed = true
		case want != nil:
			if msg := compare(resp, *want); msg != "" {
				s.failed = true
				bad = append(bad, req.ID+": "+msg)
			}
		default:
			s.resp = resp
		}
		out = append(out, s)
	}
	return out, tp.attempts.Load(), bad
}

// compare checks a response against the offline answer bit for bit.
func compare(resp *serve.PredictResponse, want expected) string {
	if len(resp.Predictions) != len(want.probs) {
		return fmt.Sprintf("%d predictions, want %d", len(resp.Predictions), len(want.probs))
	}
	for i, p := range resp.Predictions {
		if p.Branch != want.branches[i] || math.Float64bits(p.Probability) != math.Float64bits(want.probs[i]) {
			return fmt.Sprintf("prediction %d is %s %v, offline %s %v", i, p.Branch, p.Probability, want.branches[i], want.probs[i])
		}
	}
	return ""
}

// loadPhase runs the closed loop for d and returns the samples.
type loadPhase struct {
	samples  []sample
	attempts int64
	bad      []string
	wall     time.Duration
	metrics  map[string]float64 // replica counter deltas, summed
	failover int64
}

func runLoad(b *Bench, st *serveSetup, phase int, d time.Duration) (loadPhase, error) {
	var lp loadPhase
	before, err := scrape(st.stack.urls)
	if err != nil {
		return lp, err
	}
	f0 := st.stack.failover.Load()
	start := time.Now()
	stop := start.Add(d)
	results := make([]loadPhase, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			r.samples, r.attempts, r.bad = clientLoop(b, st, c, phase, stop)
		}(c)
	}
	wg.Wait()
	lp.wall = time.Since(start)
	lp.failover = st.stack.failover.Load() - f0
	for _, r := range results {
		lp.samples = append(lp.samples, r.samples...)
		lp.attempts += r.attempts
		lp.bad = append(lp.bad, r.bad...)
	}
	after, err := scrape(st.stack.urls)
	if err != nil {
		return lp, err
	}
	lp.metrics = map[string]float64{}
	for k, v := range after {
		lp.metrics[k] = v - before[k]
	}
	return lp, nil
}

// scrape sums the replicas' unlabelled /metrics samples.
func scrape(urls []string) (map[string]float64, error) {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	cl := &http.Client{Transport: tr}
	out := map[string]float64{}
	for _, u := range urls {
		resp, err := cl.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
				continue
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] += v
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runServe(b *Bench) (*Outcome, error) {
	out := newOutcome()
	st, setup, err := timeSetup(3, func() (*serveSetup, error) { return buildServe(b) },
		func(st *serveSetup) error { return st.stack.close() })
	if err != nil {
		return nil, err
	}
	out.E2E["setup_s"] = setup
	out, err = measureServe(b, out, st)
	if cerr := st.stack.close(); err == nil {
		err = cerr
	}
	return out, err
}

func measureServe(b *Bench, out *Outcome, st *serveSetup) (*Outcome, error) {
	// Warm the hot sources into the replicas' caches, and the connections
	// and heap to steady state, before timing: throughput still climbs
	// through the first seconds of load.
	if _, err := runLoad(b, st, phaseWarm, 2*time.Second); err != nil {
		return nil, err
	}
	if b.Tr != nil {
		return serveTraced(b, out, st)
	}
	lp, err := runLoad(b, st, phaseLoad, b.Seconds)
	if err != nil {
		return nil, err
	}
	verifyLoad(nil, out, st, lp)
	serveE2E(out, lp)
	return out, nil
}

// verifyLoad counts failures and checks cold answers against an offline
// compile of the same source.
func verifyLoad(tr *Tracer, out *Outcome, st *serveSetup, lp loadPhase) {
	for _, msg := range lp.bad {
		out.Fail("%s", msg)
	}
	for i, s := range lp.samples {
		out.Attempted++
		if s.resp != nil {
			want, err := offlinePredict(tr, st.ref, coldProgram(s.coldSeed).Source, fmt.Sprintf("cold-%d", i))
			if err != nil {
				s.failed = true
				out.Fail("offline compile: %v", err)
			} else if msg := compare(s.resp, want); msg != "" {
				s.failed = true
				out.Fail("%s: %s", s.resp.ID, msg)
			}
		}
		if s.failed {
			out.Failed++
		}
	}
}

func serveE2E(out *Outcome, lp loadPhase) {
	var all []float64
	var byClass [numClasses][]float64
	for _, s := range lp.samples {
		all = append(all, s.ms)
		byClass[s.class] = append(byClass[s.class], s.ms)
	}
	rps := float64(len(lp.samples)) / lp.wall.Seconds()
	out.Line("serve_rps", rps, "1/s", fmt.Sprintf("%d clients, closed loop", serveClients))
	for c, xs := range byClass {
		out.Quantile(classNames[c]+"_p50_ms", Median(xs))
		out.Quantile(classNames[c]+"_p99_ms", TailAt(xs, 99))
	}
	out.E2E["throughput_per_s"] = rps
	out.E2E["p50_ms"] = Median(all).Value
	out.E2E["tail_ms"] = TailAt(all, 99).Value
}

// serveTraced runs the loop untraced and then traced for the overhead,
// and joins the spans of each request by its id.
func serveTraced(b *Bench, out *Outcome, st *serveSetup) (*Outcome, error) {
	untraced := *b
	untraced.Tr = nil
	base, err := runLoad(&untraced, st, phaseBase, b.Seconds)
	if err != nil {
		return nil, err
	}
	st.stack.tracing.Store(true)
	lp, err := runLoad(b, st, phaseLoad, b.Seconds)
	st.stack.tracing.Store(false)
	if err != nil {
		return nil, err
	}
	verifyLoad(nil, out, st, base)
	verifyLoad(b.Tr, out, st, lp)
	serveE2E(out, lp)

	// Direct forward passes over every study vector, int8 and float.
	var vecs []features.Vector
	for _, rows := range st.vecs {
		for _, r := range rows {
			v, err := features.FromValues(r)
			if err != nil {
				return nil, err
			}
			vecs = append(vecs, v)
		}
	}
	float, err := loadModel(st.saved, false)
	if err != nil {
		return nil, err
	}
	probs := make([]float64, len(vecs))
	perVec := func(name string, m *core.Model) float64 {
		var us []float64
		for rep := 0; rep < 20; rep++ {
			sp := b.Tr.Start(name, 0, "probe")
			m.TakenProbabilities(vecs, probs)
			us = append(us, float64(sp.End())/1e3/float64(len(vecs)))
		}
		return Median(us).Value
	}

	L := out.Layers
	L["core.forward_int8_us_per_vector"] = perVec("core.forward_int8", st.ref)
	L["core.forward_float_us_per_vector"] = perVec("core.forward_float", float)

	// Join each measured request's client, router and replica spans by id;
	// a request that failed over has several replica spans.
	type reqSpans struct {
		clients                int
		client, routed, served time.Duration
	}
	byReq := map[string]*reqSpans{}
	for _, sp := range b.Tr.Spans() {
		if !strings.HasPrefix(sp.Req, phaseNames[phaseLoad]+"-") {
			continue
		}
		r := byReq[sp.Req]
		if r == nil {
			r = &reqSpans{}
			byReq[sp.Req] = r
		}
		switch sp.Name {
		case "serve.client":
			r.clients++
			r.client += sp.Dur()
		case "cluster.router":
			r.routed += sp.Dur()
		case "serve.replica":
			r.served += sp.Dur()
		}
	}
	var routerSelf, clientSelf []float64
	var replica [numClasses][]float64
	for id, r := range byReq {
		if r.clients != 1 || r.routed == 0 {
			continue
		}
		routerSelf = append(routerSelf, float64(r.routed-r.served)/1e6)
		clientSelf = append(clientSelf, float64(r.client-r.routed)/1e6)
		for c, name := range classNames {
			if strings.HasPrefix(id, phaseNames[phaseLoad]+"-"+name+"-") {
				replica[c] = append(replica[c], float64(r.served)/1e6)
			}
		}
	}
	L["cluster.router_self_ms"] = Median(routerSelf).Value
	L["serve.client_ms"] = Median(clientSelf).Value
	for c, name := range classNames {
		L["serve.replica_ms."+name] = Median(replica[c]).Value
	}

	ss := NewSpanSet(b.Tr.Spans())
	var compileMS []float64
	for _, sp := range ss.Named("serve.src_compile") {
		compileMS = append(compileMS, sp.Dur().Seconds()*1e3)
	}
	m := lp.metrics
	L["serve.src_compile_ms"] = Median(compileMS).Value
	L["minic.parse_us"] = Median(ss.SelfMicros("minic.parse")).Value
	L["codegen.compile_us"] = Median(ss.SelfMicros("codegen.compile")).Value
	L["features.featurize_us"] = Median(ss.SelfMicros("features.featurize")).Value
	var trainS, calS []float64
	for _, sp := range ss.Named("core.train") {
		trainS = append(trainS, sp.Dur().Seconds())
	}
	for _, sp := range ss.Named("core.calibrate") {
		calS = append(calS, sp.Dur().Seconds())
	}
	L["core.train_s"] = MedianValue(trainS)
	L["core.calibrate_s"] = MedianValue(calS)
	L["serve.cache_hit_ratio"] = ratio(m["espserve_cache_hits_total"], m["espserve_cache_hits_total"]+m["espserve_cache_misses_total"])
	L["serve.batch_size_mean"] = ratio(m["espserve_batched_jobs_total"], m["espserve_batches_total"])
	L["serve.queue_wait_us_mean"] = ratio(m["espserve_batch_queue_wait_micros_sum"], m["espserve_batch_queue_wait_micros_count"])
	L["serve.degraded"] = m["espserve_degraded_total"]
	L["serve.shed"] = m["espserve_shed_total"]
	L["cluster.failovers"] = float64(lp.failover)
	L["serve.client_attempts"] = ratio(float64(lp.attempts), float64(len(lp.samples)))
	L["trace.overhead_ratio"] = ratio(float64(len(base.samples))/base.wall.Seconds(), float64(len(lp.samples))/lp.wall.Seconds()) - 1
	return out, nil
}
