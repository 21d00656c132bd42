GO ?= go

.PHONY: build test race vet fuzz verify bench bench-parallel bench-mux bench-trace bench-stream bench-load bench-compare load-smoke load-mixed-repeat cover soak soak-failover soak-drift

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Short fuzz pass over the codecs (v1 + multiplexed v2 framing), the
# stream demux, the fault-injected frame path, and the node manifest and
# server state decoders.
fuzz:
	$(GO) test ./internal/proto -run=^$$ -fuzz=FuzzReadFrame$$ -fuzztime=15s
	$(GO) test ./internal/proto -run=^$$ -fuzz=FuzzReadFrameID -fuzztime=15s
	$(GO) test ./internal/proto -run=^$$ -fuzz=FuzzMessageDecoders -fuzztime=15s
	$(GO) test ./internal/proto -run=^$$ -fuzz=FuzzRepDecoders -fuzztime=15s
	$(GO) test ./internal/proto -run=^$$ -fuzz=FuzzReadStreamFrames -fuzztime=15s
	$(GO) test ./internal/faultnet -run=^$$ -fuzz=FuzzCorruptedFrames -fuzztime=15s
	$(GO) test ./internal/fs -run=^$$ -fuzz=FuzzDecodeNodeManifest -fuzztime=15s
	$(GO) test ./internal/fs -run=^$$ -fuzz=FuzzDecodeServerState -fuzztime=15s

# Per-suite benchmark commands. The recording targets below and the
# bench-compare gate invoke these SAME variables, so the suite a baseline
# was recorded with can never drift from the suite the gate reruns.
BENCH_CMD_parallel = $(GO) test -run '^$$' \
	-bench 'Sweep|RunMany|ServerLookup|ServerStats|Sharded|ServerMap|AtomicLog|AccessLog' \
	-benchtime 3x -count 3 -json \
	./internal/experiments ./internal/fs ./internal/metadata ./internal/trace
BENCH_CMD_mux = $(GO) test -run '^$$' -bench 'BenchmarkEndpoint(Serialized|Pipelined)' \
	-benchtime 200x -count 3 -json ./internal/proto
BENCH_CMD_trace = $(GO) test -run '^$$' -bench 'BenchmarkEndpointPipelined(Traced)?$$' \
	-benchtime 200x -count 3 -benchmem -json ./internal/proto
BENCH_CMD_stream = $(GO) test -run '^$$' -bench 'BenchmarkStream' \
	-benchtime 1x -count 3 -benchmem -json ./internal/fs
BENCH_CMD_load = $(GO) test -run '^$$' -bench 'BenchmarkLoad' \
	-benchtime 1x -count 3 -json ./internal/fs

# Snapshot every benchmark once (test2json stream) so perf regressions
# can be diffed against a committed baseline.
bench: bench-parallel bench-mux bench-trace bench-stream bench-load
	$(GO) test -run '^$$' -bench . -benchtime 1x -json ./... > BENCH_baseline.json

# The parallel-engine comparison (ISSUE 3 acceptance): sweep wall-clock
# sequential vs pooled, server ops/sec under concurrent clients, and the
# metadata/access-log microbenchmarks. Speedups require real cores —
# record GOMAXPROCS alongside the numbers.
bench-parallel:
	$(BENCH_CMD_parallel) > BENCH_parallel.json

# The multiplexed-transport comparison (ISSUE 5 acceptance): 8 concurrent
# callers taking turns on a serialized v1 connection vs pipelining on one
# multiplexed v2 connection, identical simulated service time.
bench-mux:
	$(BENCH_CMD_mux) > BENCH_mux.json

# The tracing-overhead comparison (ISSUE 7 acceptance): the pipelined
# mux benchmark with tracing off vs on at the production default 1%
# head-sampling rate (span per call, wire-propagated context). The
# traced variant must stay within a few percent of the plain one.
bench-trace:
	$(BENCH_CMD_trace) > BENCH_trace.json

# The streaming data-plane comparison (ISSUE 8 acceptance): chunked
# streamed reads at 1KB / 1MB / 64MB plus a streamed write and the
# whole-payload RPC read as the contrast row. The allocs/op columns are
# the O(chunk) guard — a 64MB read allocating like the file size means
# the pool regressed.
bench-stream:
	$(BENCH_CMD_stream) > BENCH_stream.json

# The load-harness capacity numbers (ISSUE 10 acceptance): fixed-work
# open/closed-loop runs through the full TCP stack — RPC round-trip
# capacity, mixed traffic, 1000-client fan-in, and accept-path connection
# cycling. Each reports achieved ops/s and read p99 alongside ns/op.
bench-load:
	$(BENCH_CMD_load) > BENCH_load.json

# The CI perf-regression gate: rerun the gated benchmark suites fresh and
# diff them against the committed baselines. Fails on a >25% geomean
# regression; override the threshold with BENCH_MAX_REGRESS (e.g.
# `make bench-compare BENCH_MAX_REGRESS=1.50` on a known-noisy runner).
# -normalize cancels uniform machine-speed differences between the
# machine that recorded the baselines and the one running the gate.
BENCH_MAX_REGRESS ?= 1.25
bench-compare:
	@tmp=$$(mktemp); \
	{ $(BENCH_CMD_parallel) > $$tmp && \
	  $(BENCH_CMD_mux) >> $$tmp && \
	  $(BENCH_CMD_trace) >> $$tmp && \
	  $(BENCH_CMD_stream) >> $$tmp && \
	  $(BENCH_CMD_load) >> $$tmp && \
	  $(GO) run ./cmd/benchdiff -max $(BENCH_MAX_REGRESS) -normalize \
		-fresh $$tmp BENCH_parallel.json BENCH_mux.json BENCH_trace.json BENCH_stream.json BENCH_load.json; }; \
	status=$$?; rm -f $$tmp; exit $$status

# The CI load-smoke lane: 60 seconds of open-loop load from 500 clients
# against a freshly booted in-process cluster (3 replicated metadata
# servers over 3 nodes). Fails on any typed error or a read/write/stream
# p99 above the (deliberately generous, CI-runner-friendly) 2s bound.
load-smoke:
	$(GO) run ./cmd/eevfsload -clients 500 -conns 32 -duration 60s \
		-rate 2000 -writes 0.1 -streams 0.1 -seed 1 \
		-report 10s -fail-on-errors -max-p99 2

# The torn-write gate: 20 back-to-back runs of the mixed-load benchmark,
# whose streamed reads overlap RPC and streamed writes of the same files.
# Any failed op fails the run, so an in-place (non-rename) write path
# coming back shows up here as an intermittent "truncated on disk".
load-mixed-repeat:
	$(GO) test -run '^$$' -bench 'BenchmarkLoadMixed$$' -benchtime 1x -count 20 ./internal/fs

# Coverage with a ratchet: the total must never drop below the committed
# COVERAGE_BASELINE. Raise the baseline when coverage durably improves.
# The profile goes to a scratch path by default so `make cover` never
# litters the working tree; CI overrides COVERPROFILE to keep it.
COVERPROFILE ?= /tmp/eevfs-coverage.out
cover:
	$(GO) test -coverprofile=$(COVERPROFILE) ./...
	@total=$$($(GO) tool cover -func=$(COVERPROFILE) | awk '/^total:/ { sub(/%/, "", $$NF); print $$NF }'); \
	base=$$(cat COVERAGE_BASELINE); \
	echo "total coverage: $$total% (baseline $$base%)"; \
	awk -v t="$$total" -v b="$$base" 'BEGIN { exit (t + 1e-9 < b) ? 1 : 0 }' || \
		{ echo "coverage ratchet FAILED: $$total% < baseline $$base%"; exit 1; }

# Randomized simulation soak (DESIGN.md §14): fresh seeds through every
# invariant oracle, plus a live TCP-stack scenario every 50 iterations
# (live scenarios roll replicated server groups and primary kills too).
# Failures shrink to a one-line repro; SOAK_SEED pins the seed base.
SOAK_SEED ?= 1
soak:
	$(GO) run ./cmd/eevfssim -seed $(SOAK_SEED) -n 500 -live 50

# The kill-the-primary battery (DESIGN.md §17): 200 seeded live runs,
# each booting a replicated metadata group and crashing the primary
# mid-workload, under the race detector. Convergence failures shrink to
# a one-line repro.
soak-failover:
	$(GO) run -race ./cmd/eevfssim -seed $(SOAK_SEED) -live-failover 200

# The adaptive-vs-NPF oracle battery (DESIGN.md §20): 200 seeded
# scenarios, every one steered into the online adaptive arm on a
# drifting workload, under the race detector. The dominance and
# transition-budget oracles judge each run; failures shrink to a
# one-line repro.
soak-drift:
	$(GO) run -race ./cmd/eevfssim -seed $(SOAK_SEED) -drift 200

# The full pre-merge gate: vet + build + the whole suite under the race
# detector (the chaos tests in internal/fs exercise real concurrency).
verify: vet build race
