# delaydefense — reproduction of "Using Delay to Defend Against Database
# Extraction" (SDM @ VLDB 2004).

GO ?= go

.PHONY: all check build vet test race cover bench bench-shield bench-engine bench-cluster bench-smoke bench-detect torture torture-cluster torture-full repro repro-fast examples fuzz clean

all: build vet test

# What CI runs: everything that must pass before a merge. The targeted
# -race pass covers the packages with real concurrency (the shield's
# cancellable query path, the rate limiter, the delay gate + price cache,
# the extraction detector, the striped buffer pool + parallel scan
# executor, and the cluster router's write fan-out + anti-entropy loop)
# without the cost of racing the whole tree.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	cd frontbench && GOFLAGS=-mod=mod $(GO) vet ./... && GOFLAGS=-mod=mod $(GO) build ./...
	$(GO) test -race ./internal/core/... ./internal/ratelimit/... ./internal/delay/... ./internal/detect/... ./internal/engine/... ./internal/storage/... ./internal/cluster/...
	$(MAKE) torture
	$(MAKE) torture-cluster

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Full shield front-door benchmark run; writes BENCH_shield.json
# (benchmark name -> ns/op).
bench-shield:
	./scripts/bench.sh

# Storage-layer benchmark run: striped pool vs the single-latch baseline,
# point-query and scan throughput at 1/4/16 goroutines, the mixed
# read/write suite on the concurrent write path (plus its legacy
# exclusive-lock baseline), and the WAL commit path with the group-commit
# window off vs on; writes BENCH_engine.json (benchmark name -> ns/op).
bench-engine:
	BENCH_SUITE=engine ./scripts/bench.sh

# Cluster front-door benchmark: the same point query against a shard
# directly vs through the router (admission, policy pick, dispatch).
# Writes BENCH_cluster.json; check mode enforces router <= 1.15x direct.
bench-cluster:
	BENCH_SUITE=cluster ./scripts/bench.sh

# Short measured run of all suites compared against the committed
# BENCH_*.json baselines: fails on a >20% per-key regression or a broken
# shape invariant (point-query scaling, price-cache scan win, grouped
# WAL commit beating per-commit fsyncs, concurrent write path keeping
# its >=3x lead over the legacy exclusive lock, cluster router staying
# within 15% of direct shard access). The short
# benchtime keeps it CI-sized; -count=3 with min-of-N extraction (see
# bench.sh) keeps single-run scheduler noise from tripping the gate; the
# committed baselines stay untouched. CI runs this.
bench-smoke:
	BENCH_SUITE=all BENCH_ARGS="-benchtime=0.25s -count=3" BENCH_CHECK=1 ./scripts/bench.sh

# Crash-consistency torture, CI-sized: a bounded sample of crash points
# (truncate-and-reopen at enumerated WAL offsets, count-snapshot
# atomicity, crash points inside coalesced group-commit flushes, and the
# live torn-append + group-flush failpoint sweeps) under -race.
# TORTURE_POINTS caps the sample; 0 means enumerate everything.
torture:
	TORTURE_POINTS=400 $(GO) test -race -v -run 'TestCrashEnumeration|TestCountSnapshotAtomicity|TestFaultSweep|TestGroupCommitCrashEnumeration|TestGroupFlushFaultSweep' ./internal/torture/

# Shard-kill cluster torture, CI-sized: a scripted workload against a
# partitioned R=2 cluster while shards are killed and revived, RPC
# faults (latency/error/torn-response) are injected, and a rebalance is
# raced against a kill — asserting no acked write is ever lost, resync
# restores full health, and detection sketches reconverge after
# revival. -short trims the op counts; drop it for the full run.
torture-cluster:
	$(GO) test -race -v -short -run TestClusterTorture ./internal/torture/

# The full enumeration — every byte of the first commit batch, all
# header/commit bytes plus strided payload bytes of the rest. Minutes,
# not seconds; run before storage-format changes.
torture-full:
	TORTURE_POINTS=0 $(GO) test -v -timeout 30m ./internal/torture/

# Detection benchmarks: sketch/cluster microbenchmarks plus the shield
# front door with detection off vs on (off must stay zero-overhead).
bench-detect:
	$(GO) test -bench='Detector|Recluster' -benchmem ./internal/detect/
	$(GO) test -bench=ShieldQueryDetect -benchmem .

# Regenerate every table and figure of the paper at full scale.
repro:
	$(GO) run ./cmd/extractbench -exp all -scale 1

# The same at 1/20 scale — seconds instead of minutes.
repro-fast:
	$(GO) run ./cmd/extractbench -exp all -scale 20

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/webtrace
	$(GO) run ./examples/boxoffice
	$(GO) run ./examples/freshness
	$(GO) run ./examples/frontdoor
	$(GO) run ./examples/adaptive

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/sqlmini/

clean:
	$(GO) clean ./...
