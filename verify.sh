#!/bin/sh
# verify.sh — the full tier-1 gate plus static analysis and fuzz smokes.
#
#   ./verify.sh                run everything (~3 min: race suite, benchmark smoke, 5×10s fuzz)
#   FUZZTIME=30s ./verify.sh   longer fuzz smokes
#
# Stages run in order and the script exits non-zero at the first
# failure, so the last banner printed names the stage that broke.
set -eu

FUZZTIME="${FUZZTIME:-10s}"

stage() {
	echo ""
	echo "=== verify: $* ==="
}

stage "go build ./..."
go build ./...

stage "gofmt (all files formatted)"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

stage "go vet ./..."
go vet ./...

stage "ecslint (project invariants)"
go run ./cmd/ecslint ./...

stage "go test ./..."
go test ./...

stage "go test -race ./..."
go test -race ./...

# The benchmark (bench/, a nested module tier-1 does not reach): its own
# tests, the layer-row program behind its build tag — an internal API
# change that stops it compiling turns 54 per-layer rows to null and
# nothing else notices — and one short run of all four workloads against
# the real binaries with every validity check on (~20 s).
stage "ecsbench (bench module: vet, tests, layers build, -smoke)"
(cd bench && go vet ./... && go test ./... && go build -tags ecsbench -o /dev/null ./layers)
bash bench/run.sh -smoke

# The serving layer under overload, replayed: flood at a multiple of the
# admission capacity with panicking queries, plus the exact RRL storm.
# -short trims the flood factor so the replay stays inside a small
# budget; the full-scale variant already ran in the race suite above.
stage "overload chaostest (flood + RRL storm, -race, replay x2)"
go test -race -short -count=2 -run 'TestOverload|TestRRLStorm' ./internal/netem/chaostest

# The upstream pool under partial failure, replayed: a blackout that
# must failover with ≥99% answered, and a flapping mirror that must
# drive a full breaker lifecycle (Closed→Open→HalfOpen→Closed) with a
# replay-identical transition trace. -count=2 reruns each scenario in
# the same process, so the determinism assertions cover fresh and
# warmed runtime state.
stage "failover chaostest (blackout + flapping breaker, -race, replay x2)"
go test -race -count=2 -run 'TestChaosBlackoutFailover|TestChaosFlappingUpstream' ./internal/netem/chaostest

# Cache benchmark smoke: a short fixed-iteration run of the sharding
# benchmarks, piped through benchjson so the BENCH_cache.json schema
# and required benchmark set are validated on every verify. Full-length
# runs (see EXPERIMENTS.md) regenerate the committed artifact.
stage "bench smoke (cache benchmarks -> results/BENCH_cache.json schema)"
go test -run NONE -bench 'BenchmarkCacheLookup|BenchmarkCacheChurn' \
	-benchtime 100x -benchmem -cpu 4 ./internal/ecscache \
	| go run ./cmd/benchjson \
		-require BenchmarkCacheLookup,BenchmarkCacheChurn \
		-out /tmp/BENCH_cache.smoke.json

# Scan-throughput benchmark smoke: one pass over the full
# (delay, shards) grid — including the zero-alloc codec and
# sharded-pipeline hot paths — validated against the BENCH_scan.json
# schema. Full-length runs (see EXPERIMENTS.md) regenerate the
# committed artifact.
stage "bench smoke (scan throughput -> results/BENCH_scan.json schema)"
go test -run NONE -bench BenchmarkScanThroughput \
	-benchtime 1x -benchmem ./internal/scanner \
	| go run ./cmd/benchjson \
		-require BenchmarkScanThroughput \
		-out /tmp/BENCH_scan.smoke.json

# Resilience benchmark smoke: breaker fast-fail and hedged-vs-unhedged
# pool runs, validated against the BENCH_resilience.json schema. The
# virtual-latency percentiles (p50/p99-virtual-ms) ride along as
# custom metrics. Full-length runs (see EXPERIMENTS.md) regenerate the
# committed artifact.
stage "bench smoke (upstream resilience -> results/BENCH_resilience.json schema)"
go test -run NONE -bench 'BenchmarkBreakerFastFail|BenchmarkPoolHedging' \
	-benchtime 200x -benchmem ./internal/upstreams \
	| go run ./cmd/benchjson \
		-require BenchmarkBreakerFastFail,BenchmarkPoolHedging \
		-out /tmp/BENCH_resilience.smoke.json

stage "fuzz smoke tests (${FUZZTIME} each)"
go test -fuzz 'FuzzUnpack$'      -fuzztime "$FUZZTIME" -run NONE ./internal/dnswire
go test -fuzz 'FuzzUnpackReuse$' -fuzztime "$FUZZTIME" -run NONE ./internal/dnswire
go test -fuzz 'FuzzNameParse$'   -fuzztime "$FUZZTIME" -run NONE ./internal/dnswire
go test -fuzz 'FuzzNamePrepend$' -fuzztime "$FUZZTIME" -run NONE ./internal/dnswire
go test -fuzz 'FuzzDecode$'      -fuzztime "$FUZZTIME" -run NONE ./internal/ecsopt

echo ""
echo "verify: all green"
