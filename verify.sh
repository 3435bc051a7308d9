#!/bin/sh
# verify.sh — the full tier-1 gate (build, gofmt, vet, tests, race)
# plus the benchmark module's gate, the paper's numbers and fuzz smokes.
# What each stage is for, what it costs and which seeded regressions it
# alone trips on is the ledger in DESIGN.md §12; a stage is added or
# dropped there first.
#
#   ./verify.sh                run everything (4 min 19 s on a 2-vCPU box, test cache empty)
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

stage "go vet for darwin, windows, linux/arm and linux/386 (internal/udpio's fallback and 32-bit layouts)"
GOOS=darwin go vet ./... && GOOS=windows go vet ./...
GOOS=linux GOARCH=arm go vet ./... && GOOS=linux GOARCH=386 go vet ./...

stage "go test ./..."
go test ./...

stage "go test -race ./..."
go test -race ./...

stage "ecsbench (bench module: vet, tests, layers build, -smoke)"
(cd bench && go vet ./... && go test ./... && go build -tags ecsbench -o /dev/null ./layers)
bash bench/run.sh -smoke

stage "benchmarks run (every Benchmark* under internal/ and cmd/, one iteration)"
go test -run '^$' -bench . -benchtime 1x ./internal/... ./cmd/...

stage "examples (each runs once; examples/scanner twice, same output)"
for ex in examples/*/; do
	go run "./$ex" >/dev/null
done
runs=$(mktemp -d)
trap 'rm -rf "$runs"' EXIT
go run ./examples/scanner -faults "loss=0.2,servfail=0.1" -fault-seed 3 >"$runs/1"
go run ./examples/scanner -faults "loss=0.2,servfail=0.1" -fault-seed 3 >"$runs/2"
cmp "$runs/1" "$runs/2"

stage "paper numbers (ecslab all == results/ecslab_all.txt)"
go run ./cmd/ecslab all | cmp - results/ecslab_all.txt

stage "fuzz smoke tests (${FUZZTIME} each)"
go test -fuzz 'FuzzUnpack$'      -fuzztime "$FUZZTIME" -run NONE ./internal/dnswire
go test -fuzz 'FuzzUnpackReuse$' -fuzztime "$FUZZTIME" -run NONE ./internal/dnswire
go test -fuzz 'FuzzNameParse$'   -fuzztime "$FUZZTIME" -run NONE ./internal/dnswire
go test -fuzz 'FuzzNamePrepend$' -fuzztime "$FUZZTIME" -run NONE ./internal/dnswire
go test -fuzz 'FuzzDecode$'      -fuzztime "$FUZZTIME" -run NONE ./internal/ecsopt
go test -fuzz 'FuzzEntryRoundTrip$' -fuzztime "$FUZZTIME" -run NONE ./internal/ecscache

echo ""
echo "verify: all green"
