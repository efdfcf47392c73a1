GO ?= go

.PHONY: build test check fmt vet race chaos bench bench-smoke bench-shard bench-writeback bench-replica bench-chase bench-wire benchguard difftest fuzz-smoke trace-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the CI gate: formatting, static analysis, the full test
# suite under the race detector (exercises the concurrent remote server
# and the obs tracer/registry), the differential-testing suite (oracle
# vs per-hop vs offloaded traversal, byte-exact under seeded chaos), a
# short fuzzing smoke pass over the wire-format decoders, the
# distributed-tracing smoke, and the sweep regression guards against
# the checked-in baselines.
check: fmt vet race difftest fuzz-smoke trace-smoke benchguard

# difftest runs the differential harness verbosely: every traversal
# workload three ways (in-process oracle, per-hop remote, offloaded
# chase) with checksums compared byte-for-byte, on clean links and
# under seeded fault schedules. The race target above already runs
# these once; this target pins them by name so the suite cannot be
# silently lost to a test rename.
difftest:
	$(GO) test -v -count=1 ./internal/difftest

# trace-smoke runs a traced pointer chase over a real TCP far tier with
# injected RTT and validates the tentpole end to end: the merged Chrome
# trace carries causally linked client and server spans, and every op's
# four-component latency decomposition sums to its wall time.
trace-smoke:
	$(GO) test -run '^TestTraceSmoke$$' -count=1 -v .

# benchguard reruns the pipeline-depth, dirty write-back, replication,
# traversal-offload and wire-efficiency sweeps and fails if any guarded
# ratio fell below its floor relative to the checked-in
# BENCH_pipeline.json / BENCH_writeback.json / BENCH_replica.json /
# BENCH_chase.json / BENCH_wire.json baselines (the guarded values are
# in-run ratios, so host speed cancels out; the chase gate pins the
# hop-budget-16 speedup, the wire gate pins the analytics workload's
# bytes-per-op reduction over the plain compact rung). Pass or fail, it
# prints the per-row measured-vs-baseline delta tables.
benchguard:
	$(GO) run ./cmd/benchguard -baseline BENCH_pipeline.json -writeback-baseline BENCH_writeback.json -replica-baseline BENCH_replica.json -chase-baseline BENCH_chase.json -wire-baseline BENCH_wire.json

# fuzz-smoke runs each native fuzzer briefly (seed corpus + a short
# random exploration). Go allows one -fuzz pattern per invocation, so
# each fuzzer gets its own.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime $(FUZZTIME) ./internal/rdma
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME) ./internal/faultnet

# chaos runs the fault-tolerance suite: the e2e workloads over the chaos
# proxy and the breaker outage demo (root), the transport's
# cut/timeout/uncertain-write/reconnect tests (internal/remote), the
# runtime breaker and async fault paths (internal/farmem), and the
# injector itself (internal/faultnet). Schedules are seeded in the tests,
# so a run is reproducible.
chaos:
	$(GO) test -v -run 'TestChaos|TestBreaker' .
	$(GO) test -v -run 'TestSerialClient|TestSerialWrite|TestPipelined|TestServerDrain|TestCRCSession' ./internal/remote
	$(GO) test -v -run 'TestBreaker|TestStoreRetry|TestDegraded|TestHarvest|TestClockSettle' ./internal/farmem
	$(GO) test -v ./internal/faultnet

bench:
	$(GO) test -bench . -benchtime 2s -run '^$$' .

# bench-smoke runs the real-socket sweeps briefly (TCP loopback) and
# records their tables for trend tracking.
bench-smoke: bench-writeback
	$(GO) run ./cmd/cardsbench -exp pipeline -scale quick -json > BENCH_pipeline.json
	@cat BENCH_pipeline.json

# bench-writeback runs the sync-vs-async dirty write-back sweep (real
# TCP loopback with injected per-frame RTT) and records the table.
bench-writeback:
	$(GO) run ./cmd/cardsbench -exp writeback -scale quick -json > BENCH_writeback.json
	@cat BENCH_writeback.json

# bench-replica runs the replicated far-tier sweep (R=1/2/3 over the
# same 3-backend TCP fleet with injected per-op service latency):
# write amplification, write-throughput retention vs the unreplicated
# baseline, and the failover latency of a read stream whose primary is
# killed mid-run.
bench-replica:
	$(GO) run ./cmd/cardsbench -exp replica -scale quick -json > BENCH_replica.json
	@cat BENCH_replica.json

# bench-chase runs the server-side traversal-offload sweep (dependent
# per-hop reads vs one CHASEBATCH per hop-budget window, real TCP
# loopback with 200µs injected per-frame RTT, hop budgets 2..64) and
# records the table.
bench-chase:
	$(GO) run ./cmd/cardsbench -exp chase -scale quick -json > BENCH_chase.json
	@cat BENCH_chase.json

# bench-wire runs the wire-efficiency ladder (compact encoding with
# compression off → +adaptive LZ compression → +compiler-aided
# dirty-range write-back) over a bandwidth-shaped TCP loopback and
# records bytes-on-wire per op and end-to-end throughput per rung.
bench-wire:
	$(GO) run ./cmd/cardsbench -exp wire -scale quick -json > BENCH_wire.json
	@cat BENCH_wire.json

# bench-shard runs the sharded far-tier sweep (1→4 backends, real TCP
# loopback with injected per-connection service latency) and records the
# read-bandwidth scaling table.
bench-shard:
	$(GO) run ./cmd/cardsbench -exp shard -scale quick -json > BENCH_shard.json
	@cat BENCH_shard.json
