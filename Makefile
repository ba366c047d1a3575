GO ?= go

.PHONY: all build test vet fmt-check check bench bench-hot perfbench race fuzz chaos cluster-chaos gencorpus-check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# race runs the data-race detector over the concurrent packages (parallel
# cross-validation folds, parallel leave-one-out training, the prediction
# scratch pool, the espserve batching worker pool, and concurrent
# artifact-cache readers/writers).
race:
	$(GO) test -race ./internal/core ./internal/neural ./internal/interp ./internal/serve ./internal/faultinject ./internal/artifact ./internal/experiments ./internal/obs ./internal/gencorpus ./internal/cluster ./internal/pgo ./internal/hwsim

# gencorpus-check is the short generative soak CI runs on every push: the
# generator property suite (~200 programs across the five mixes, each
# parsed, compiled, and executed under guard budgets) with the race
# detector watching the parallel shard-analysis path.
gencorpus-check:
	$(GO) test -race -short ./internal/gencorpus

# chaos runs the fault-injection suite under the race detector: seeded
# error/latency/panic faults at every registered site while concurrent
# clients verify bit-identical or correctly-degraded answers, drain
# completion, and goroutine hygiene.
chaos:
	$(GO) test -race -run Chaos ./internal/serve/... ./internal/faultinject/...

# cluster-chaos runs the replicated-serving chaos suite under the race
# detector: a seeded injector fires faults at the routing, peer-cache, and
# reload sites while a replica is killed and restarted mid-load, a peer
# partition opens and heals, and hot reloads land mid-burst — asserting
# every completed answer is bit-identical or exactly-degraded, loss stays
# bounded, and no goroutines leak.
cluster-chaos:
	$(GO) test -race -run 'ClusterChaos|Peer|Router|Ring' ./internal/cluster

# fuzz runs every fuzz target for a short budget, the same way CI does.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=20s ./internal/minic
	$(GO) test -run=NONE -fuzz=FuzzEncode -fuzztime=20s ./internal/features
	$(GO) test -run=NONE -fuzz=FuzzQuantDot -fuzztime=20s ./internal/neural
	$(GO) test -run=NONE -fuzz=FuzzGenCorpus -fuzztime=20s ./internal/gencorpus

check: build vet fmt-check test race chaos cluster-chaos

# bench runs the full benchmark suite (every table/figure plus the component
# micro-benchmarks). Expect several minutes.
bench:
	$(GO) test -bench . -benchmem -timeout 3600s .

# bench-hot runs just the hot-path benchmarks this repo optimizes: ESP
# cross-validation, sparse neural training (synthetic, and one real
# leave-one-out fold in ms/epoch), and profile collection (the micro-op
# interpreter on espresso without and with edge counting, and on tomcatv).
bench-hot:
	$(GO) test -run XXX -benchmem -timeout 3600s \
		-bench 'BenchmarkTable4ESPCrossVal|BenchmarkNeuralTrainSparse|BenchmarkNeuralTrainFold|BenchmarkInterpProfile|BenchmarkInterpProfileEdges|BenchmarkInterpretTomcatv' .

# perfbench checks the repo's one benchmark (BENCHMARK.json) end to end:
# it vets and self-tests the perfbench module, which root `go test ./...`
# never reaches, then runs every workload briefly. A run fails only when
# its own output checks fail, never on a number; compare numbers across
# commits with full-length runs of bash perfbench/run.sh.
perfbench:
	cd perfbench && $(GO) vet . && $(GO) test .
	@for w in analyze loo-train optimize serve-routed; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 || exit 1; \
	done
