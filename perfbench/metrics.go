package main

import (
	"fmt"
	"regexp"
)

// MetricDef names one metric as BENCHMARK.json lists it.
type MetricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics every workload reports with tracing off. Each
// workload maps its own operation onto them:
//
//	workload      operation                          throughput; p50 and tail
//	analyze       one program through one pass       programs/s over cold+warm+peer cycles; latency, tail p99
//	loo-train     one full CrossValidate             folds/s (20 ÷ loo_s); loo_s in ms, tail = max
//	optimize      one program built, run and priced  programs/s; latency, tail p90
//	serve-routed  one /predict through the router    requests/s; latency over the whole mix, tail p99
//
// Each tail percentile is fixed, and leaves at least ten samples above it
// at every machine speed seen. The workload-specific figures (cold, warm
// and peer rates; per-class serve percentiles; loo_s) are printed beside
// them. peak_heap_mb is the live heap's high-water mark.
var endToEnd = []MetricDef{
	{"throughput_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// LayerDef is one per-layer metric of the traced run, with the end-to-end
// metric and workload it is expected to move ("not X" predicts no change).
type LayerDef struct {
	MetricDef
	Moves string
}

func layer(name, unit, better, moves string) LayerDef {
	return LayerDef{MetricDef{name, unit, better}, moves}
}

// layers are reported by every traced run; a layer the workload does not
// call reads 0. Times are nearest-rank medians of self time per call.
var layers = []LayerDef{
	layer("gencorpus.generate_us", "us", "lower", "setup_s on analyze and optimize"),
	layer("minic.parse_us", "us", "lower", "analyze throughput (cold, warm, peer), optimize throughput, serve-routed src_cold p50; not loo-train, not vec"),
	layer("minic.parse_bytes_per_us", "B/us", "higher", "as minic.parse_us"),
	layer("codegen.compile_us", "us", "lower", "as minic.parse_us"),
	layer("codegen.ir_instrs", "count", "lower", "as minic.parse_us"),
	layer("interp.run_us", "us", "lower", "analyze cold-pass throughput; not the warm pass"),
	layer("interp.insns_per_us", "1/us", "higher", "analyze cold-pass throughput"),
	layer("interp.runs_warm", "count", "lower", "must stay 0: the warm and peer passes never run the interpreter"),
	layer("features.featurize_us", "us", "lower", "analyze throughput (all passes), serve-routed src_cold p50"),
	layer("features.sites", "count", "lower", "as features.featurize_us"),
	layer("artifact.store_us", "us", "lower", "analyze cold-pass throughput"),
	layer("artifact.load_us", "us", "lower", "analyze warm-pass throughput"),
	layer("artifact.hit_ratio", "ratio", "higher", "analyze warm-pass throughput"),
	layer("artifact.bytes_per_program", "B", "lower", "analyze cold, warm and peer throughput"),
	layer("cluster.peer_fetch_us", "us", "lower", "analyze peer-pass throughput"),
	layer("cluster.peer_hit_ratio", "ratio", "higher", "analyze peer-pass throughput"),
	layer("features.encode_us", "us", "lower", "loo-train p50 (loo_s)"),
	layer("core.fold_train_s_p50", "s", "lower", "loo-train p50 (loo_s)"),
	layer("core.fold_train_s_max", "s", "lower", "loo-train p50 (loo_s): the slowest fold bounds the parallel run"),
	layer("neural.epochs", "count", "lower", "loo-train p50 (loo_s)"),
	layer("neural.epoch_ms", "ms", "lower", "loo-train p50 (loo_s)"),
	layer("core.crossval_busy_ratio", "ratio", "higher", "loo-train p50 (loo_s)"),
	layer("core.train_s", "s", "lower", "setup_s on serve-routed; not any serve latency"),
	layer("core.calibrate_s", "s", "lower", "setup_s on serve-routed; not any serve latency"),
	layer("heuristics.missrate_us", "us", "lower", "loo-train p50 (loo_s), predicted negligible"),
	layer("pgo.unguided_us", "us", "lower", "optimize throughput"),
	layer("pgo.optimize_us", "us", "lower", "optimize throughput"),
	layer("interp.run_edges_us", "us", "lower", "optimize throughput"),
	layer("interp.cyclecount_us", "us", "lower", "optimize throughput"),
	layer("interp.run_traced_us", "us", "lower", "optimize throughput"),
	layer("interp.trace_overhead_ratio", "ratio", "lower", "optimize throughput"),
	layer("hwsim.events", "count", "lower", "optimize throughput"),
	layer("hwsim.ns_per_event", "ns", "lower", "optimize throughput"),
	layer("cluster.router_self_ms", "ms", "lower", "serve-routed p50 and tail (vec and src); not any offline workload"),
	layer("serve.replica_ms.vec", "ms", "lower", "serve-routed vec p50/p99"),
	layer("serve.replica_ms.src_hot", "ms", "lower", "serve-routed src_hot p50/p99"),
	layer("serve.replica_ms.src_cold", "ms", "lower", "serve-routed src_cold p50/p99"),
	layer("serve.client_ms", "ms", "lower", "serve-routed p50 and tail"),
	layer("core.forward_int8_us_per_vector", "us", "lower", "serve-routed vec p50; not src_cold p50, where compile dominates"),
	layer("core.forward_float_us_per_vector", "us", "lower", "serve-routed vec p50 if the float path served"),
	layer("serve.src_compile_ms", "ms", "lower", "serve-routed src_cold p50"),
	layer("serve.cache_hit_ratio", "ratio", "higher", "serve-routed throughput and src_hot p50"),
	layer("serve.batch_size_mean", "count", "higher", "serve-routed throughput and src_hot p50"),
	layer("serve.queue_wait_us_mean", "us", "lower", "serve-routed throughput and src_hot p50"),
	layer("serve.degraded", "count", "lower", "serve-routed failed count"),
	layer("serve.shed", "count", "lower", "serve-routed failed count"),
	layer("cluster.failovers", "count", "lower", "serve-routed failed count"),
	layer("serve.client_attempts", "count", "lower", "serve-routed failed count: attempts above requests are retries"),
	layer("trace.overhead_ratio", "ratio", "lower", "none: (traced − untraced) ÷ untraced wall time of the measured loop"),
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetric reports why a metric definition breaks the naming rules.
func validMetric(m MetricDef) error {
	switch {
	case !nameRE.MatchString(m.Name):
		return fmt.Errorf("metric name %q", m.Name)
	case !unitRE.MatchString(m.Unit):
		return fmt.Errorf("metric %s unit %q", m.Name, m.Unit)
	case m.Better != "higher" && m.Better != "lower":
		return fmt.Errorf("metric %s better %q", m.Name, m.Better)
	}
	return nil
}
