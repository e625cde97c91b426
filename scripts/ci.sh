#!/bin/sh
# ci.sh — the repo's tier-1 verification gate (see ROADMAP.md).
# Run from anywhere; exits non-zero on the first failure.
#
# Measured runtime on a 2-core Xeon (go1.24, warm build cache, no test
# result cache): ~4 minutes total —
#   gofmt/lint/vet/build      ~10s  (lint is the repo's own analyzer,
#                                    scripts/lint: map-iteration-order
#                                    determinism in the emitting packages)
#   go test ./...             ~40s  (dominated by internal/experiments)
#   go test -race -short      ~3m   (full suite under the race detector;
#                                    -short trims the experiment sweeps and
#                                    difftest seed counts, which -race would
#                                    otherwise stretch past 15 minutes)
#   fuzz smoke                ~20s  (4 targets x 5s plus instrumented builds)
#   faclint smoke              ~1s  (static FAC-predictability analysis over
#                                    the 19-benchmark suite must classify at
#                                    least 68% of all load/store sites — the
#                                    suite currently sits at 68.8%, so any
#                                    precision regression trips the gate —
#                                    plus an -explain-first blame-chain probe)
#   predictor grid smoke       ~2s  (scripts/predsmoke: two small workloads
#                                    under the baseline and every predictor-
#                                    zoo machine; the exported RunRecord
#                                    report must be byte-identical to the
#                                    committed golden)
#   facd harness               ~8s  (cmd/facload -duration 5s: one facd build;
#                                    API probes — report, cache-served
#                                    resubmission, SSE replay, 401/429/413/404,
#                                    SIGHUP token rotation; a 3-tenant
#                                    overload soak with a mid-soak SIGTERM
#                                    asserting the drain identity, fairness
#                                    and a p99 queue wait within a bound
#                                    derived from the measured run time; a
#                                    fleet soak with a worker SIGKILL, a
#                                    byte-identical report and the
#                                    coordinator's drain identity)
#   bench smoke                ~1s  (one BenchmarkPipeline iteration with
#                                    BENCH_OUT redirected to a scratch file;
#                                    scripts/benchsmoke checks the report
#                                    schema, exact simulated-timing match vs
#                                    the committed BENCH_pipeline.json, and
#                                    <=20% throughput regression)
#
# The fuzz smoke stage runs each differential fuzz target briefly against
# its committed seed corpus plus a few seconds of mutation, so a crasher
# that slips past the deterministic tests still trips CI. For real hunting
# sessions use longer budgets (see docs/TESTING.md).
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== repo lint =="
go run ./scripts/lint

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (short) =="
go test -race -short ./...

echo "== fuzz smoke =="
for target in FuzzFACPredict FuzzEncodeDecode FuzzAsmRoundtrip FuzzEmuVsPipeline; do
    echo "-- $target"
    go test ./internal/difftest/ -run '^$' -fuzz "^${target}\$" -fuzztime 5s
done

echo "== faclint smoke =="
verdicts=$(go run ./cmd/faclint -suite -min-classified 0.68)
if [ -z "$verdicts" ]; then
    echo "faclint produced no verdicts" >&2
    exit 1
fi
blame=$(go run ./cmd/faclint -benchmark queens -explain-first)
case "$blame" in
*"verdict=unknown"*) ;;
*)
    echo "faclint -explain-first produced no blame chain:" >&2
    echo "$blame" >&2
    exit 1
    ;;
esac

echo "== predictor grid smoke =="
go run ./scripts/predsmoke

echo "== facd harness =="
go run ./cmd/facload -duration 5s

echo "== bench smoke =="
bench_out=$(mktemp)
trap 'rm -f "$bench_out"' EXIT
BENCH_OUT="$bench_out" go test -run '^$' -bench '^BenchmarkPipeline$' -benchtime 1x .
go run ./scripts/benchsmoke -ref BENCH_pipeline.json -new "$bench_out"

echo "CI OK"
