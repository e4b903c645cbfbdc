GO ?= go

# `make check` is the full pre-commit gate: static analysis, a clean
# build, the race-enabled test suite, a one-iteration smoke of the
# parallel-query benchmarks, a metrics-overhead smoke (the
# instrumented scan workload must complete alongside its
# DisableMetrics twin), the chaos smoke (every registered crash
# point fires, recovers, and matches the reference, under -race),
# the shard smoke (sharded fleets render byte-identical results and
# degrade per shard, under -race), the netchaos smoke (a 3-shard
# journaled fleet under wire faults, torn acks, and a shard read
# blackout never returns a wrong answer, under -race), and a
# bench-record smoke (a one-transition recording must emit a
# schema-valid BENCH_record.json), the obs smoke (the timeline,
# SLO, and wavetop surfaces against both in-process fleets and a real
# booted waved), and the cache smoke (the caching tier renders
# byte-identical cold and warm answers across every scheme, technique,
# and shard count, and a mid-transition crash never leaves a stale
# entry servable, under -race), and the perfbench module's vet and
# tests (its own go.mod keeps it out of the root build).
.PHONY: check vet build test race bench-smoke metrics-smoke chaos-smoke \
	shard-smoke netchaos-smoke cache-smoke bench-record bench-record-smoke \
	bench-gate obs-smoke perfbench-test perfbench-run

check: vet build race bench-smoke metrics-smoke chaos-smoke shard-smoke \
	netchaos-smoke cache-smoke bench-record-smoke bench-gate obs-smoke \
	perfbench-test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench-smoke:
	$(GO) test -bench='ParallelProbe|ParallelScan|MultiProbe|ParallelBuild|AsyncTransition|Sharded' -benchtime=1x -run '^$$' .

metrics-smoke:
	$(GO) test -bench='MetricsOverhead' -benchtime=1x -run '^$$' .

chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaos' ./wave/

shard-smoke:
	$(GO) test -race -count=1 -run 'TestSharded|TestBrokenShard|TestShardCrash' ./wave/shard/

netchaos-smoke:
	$(GO) test -race -count=1 -run 'TestNetChaosSoak|TestBreaker|TestClient' ./internal/server/ ./wave/shard/
	$(GO) test -race -count=1 ./internal/netfault/

# cache-smoke gates the caching tier: cached answers must be
# byte-identical to uncached ones across every scheme × technique and
# shard count, transitions must invalidate exactly the rebuilt
# constituents, and a crash between transition and recovery must
# restart the caches cold — all under -race.
cache-smoke:
	$(GO) test -race -count=1 -run 'TestCacheEquivalenceAllSchemes|TestCacheRetentionBySchemes|TestCacheCrashRecoveryNoStaleResults' ./wave/
	$(GO) test -race -count=1 -run 'TestShardedCacheEquivalence' ./wave/shard/

# obs-smoke gates the observability plane: the race-enabled timeline /
# SLO / chaos-exactly-once tests, the wavetop console tests, and a real
# boot — start waved with events and SLO wired, render one wavetop
# frame against it, and check the admin /events page answers.
obs-smoke:
	$(GO) test -race -count=1 -run 'TestObs|TestChaosTimeline' ./cmd/waved/
	$(GO) test -race -count=1 ./cmd/wavetop/ ./internal/obs/
	rm -rf .obs-smoke && mkdir -p .obs-smoke
	$(GO) build -o .obs-smoke/waved ./cmd/waved
	$(GO) build -o .obs-smoke/wavetop ./cmd/wavetop
	./.obs-smoke/waved -addr 127.0.0.1:7461 -admin-addr 127.0.0.1:7462 \
		-window 3 -indexes 2 -shards 2 & \
	pid=$$!; trap 'kill $$pid' EXIT; sleep 1; \
	./.obs-smoke/wavetop -addr 127.0.0.1:7461 -once | grep -q 'SHARDS' && \
	./.obs-smoke/wavetop -addr 127.0.0.1:7461 -once | grep -q 'EVENTS'
	rm -rf .obs-smoke

# perfbench-test vets and tests the wall-clock benchmark module. Root
# `go build ./...` never compiles perfbench/, which imports the server
# and shard APIs, so an API change must pass here too.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# perfbench-run runs one untraced wall-clock benchmark workload and
# prints its metrics; it is not part of check. Override the workload,
# seed and run length with W=, SEED= and SECONDS=, e.g.
#   make perfbench-run W=point-wire SEED=2 SECONDS=10
W ?= window-scan
SEED ?= 1
SECONDS ?= 30

perfbench-run:
	bash perfbench/run.sh --workload $(W) --seed $(SEED) --seconds $(SECONDS) --trace 0

# bench-record writes a full-length bench trajectory to bench/ for
# regression tracking; compare two recordings with
#   $(GO) run ./cmd/wavebench -compare old.json new.json
bench-record:
	$(GO) run ./cmd/wavebench -exp record -json bench

bench-record-smoke:
	rm -rf .bench-smoke
	$(GO) run ./cmd/wavebench -exp record -transitions 1 -json .bench-smoke
	$(GO) run ./cmd/wavebench -validate .bench-smoke/BENCH_record.json
	rm -rf .bench-smoke

# bench-gate is the regression gate: re-record the full trajectory and
# the sharded scale-out sweep (all costs are simulated disk time, so
# the runs are fast and deterministic) and fail on any >10% regression
# against the committed baselines. The shard sweep records the same
# simulated measures BenchmarkShardedProbe/BenchmarkShardedAddDay
# report as sim_ms/op. Refresh a baseline after an intentional cost
# change with
#   $(GO) run ./cmd/wavebench -exp record -json .bench-gate && \
#   cp .bench-gate/BENCH_record.json BENCH_6.json
# or
#   $(GO) run ./cmd/wavebench -exp shardrecord -json .bench-gate && \
#   cp .bench-gate/BENCH_shards_record.json BENCH_7.json
# or
#   $(GO) run ./cmd/wavebench -exp cacherecord -json .bench-gate && \
#   cp .bench-gate/BENCH_cache_record.json BENCH_8.json
# BENCH_6 and BENCH_7 were recorded with the caches off and stay
# comparable: a cache-off index prices queries exactly as before this
# tier existed, and exports no cache_* gauges.
bench-gate:
	rm -rf .bench-gate
	$(GO) run ./cmd/wavebench -exp record -json .bench-gate
	$(GO) run ./cmd/wavebench -compare BENCH_6.json .bench-gate/BENCH_record.json
	$(GO) run ./cmd/wavebench -exp shardrecord -json .bench-gate
	$(GO) run ./cmd/wavebench -compare BENCH_7.json .bench-gate/BENCH_shards_record.json
	$(GO) run ./cmd/wavebench -exp cacherecord -json .bench-gate
	$(GO) run ./cmd/wavebench -compare BENCH_8.json .bench-gate/BENCH_cache_record.json
	rm -rf .bench-gate
