#!/bin/sh
# Benchmark suite: measures the hot paths (scheduler, classifier, frame
# path, engine interception, Figure 5/6 scenarios built fresh, the
# Figure 5 data path on a reused testbed) and the campaign
# executor's end-to-end throughput, recording the results as
# BENCH_core.json and BENCH_campaign.json at the repository root.
#
# Usage: scripts/bench.sh [count]
#   count  -benchtime iteration spec (default 2s of wall time per bench).
#
# See docs/PERFORMANCE.md for how to interpret the numbers and for the
# recorded before/after history of the allocation overhaul.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${1:-2s}"

run_bench() {
    # $1 = package, $2 = benchmark regexp
    # A pattern that matches nothing (renamed or deleted benchmark)
    # would silently drop its entries from the JSON; fail loudly instead.
    out="$(go test -run '^$' -bench "$2" -benchmem -benchtime "$BENCHTIME" "$1")"
    if ! printf '%s\n' "$out" | grep -q '^Benchmark'; then
        printf '%s\n' "$out" >&2
        echo "bench.sh: pattern '$2' matched no benchmarks in $1" >&2
        exit 1
    fi
    printf '%s\n' "$out" | tee -a /dev/stderr
}

# Parse `go test -bench` output lines of the form
#   BenchmarkName  <iters>  <ns> ns/op  [<runs> runs/s]  <bytes> B/op  <allocs> allocs/op
# from $1 into a JSON object keyed by benchmark name, written to $2.
emit_json() {
    awk '
    BEGIN { print "{"; first = 1 }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)   # strip -GOMAXPROCS suffix if present
        ns = ""; bytes = ""; allocs = ""; runs = ""; cpus = ""
        for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op")     ns = $(i - 1)
            if ($(i) == "B/op")      bytes = $(i - 1)
            if ($(i) == "allocs/op") allocs = $(i - 1)
            if ($(i) == "runs/s")    runs = $(i - 1)
            if ($(i) == "cpus")      cpus = $(i - 1)
        }
        if (ns == "") next
        if (!first) print ","
        first = 0
        printf "  \"%s\": {\"ns_per_op\": %s", name, ns
        if (runs != "")   printf ", \"runs_per_sec\": %s", runs
        if (cpus != "")   printf ", \"cpus\": %s", cpus
        if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
        if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
        printf "}"
    }
    END { print "\n}" }
    ' "$1" > "$2"
    echo "benchmark results written to $2"
}

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

{
    run_bench ./internal/sim 'BenchmarkScheduler'
    run_bench ./internal/core 'BenchmarkClassifier'
    run_bench ./internal/ether 'BenchmarkBusForwarding'
    run_bench . 'BenchmarkEngineInterception|BenchmarkFig5Scenario|BenchmarkFig5Steady|BenchmarkFig6Scenario|BenchmarkTopology|BenchmarkSharded'
} > "$RAW"
emit_json "$RAW" BENCH_core.json

# Campaign throughput: whole 16-run matrices per iteration — serial, the
# default worker pool, and the fixed 2/4/8-worker scaling curve
# (BenchmarkCampaignWorkersN). runs_per_sec is the figure to watch;
# allocs_per_op guards the compile-once/reset-to-reuse pipeline (gated
# by TestCampaignSerialAllocs).
: > "$RAW"
run_bench ./campaign 'BenchmarkCampaign' > "$RAW"
emit_json "$RAW" BENCH_campaign.json
