#!/bin/sh
# Repository check suite: everything a change must pass before merging.
# Run from anywhere; operates on the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== gofmt =="
# Every tracked .go file, both modules; the benchmark's build and run
# output is not source.
UNFORMATTED="$(gofmt -l . | grep -v -e '^bench/out/' -e '^\.bench_build/' || true)"
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt -l names:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "== doc line budget =="
# Doc growth is a decision, not a drift: README, DESIGN, EXPERIMENTS,
# docs/*.md and bench/README.md together stay under this ceiling, which
# only an edit here raises. It is the total when it was last set, within
# the ROADMAP budget of 2 500.
DOC_CEILING=2494
DOC_LINES="$(cat README.md DESIGN.md EXPERIMENTS.md docs/*.md bench/README.md | wc -l)"
if [ "$DOC_LINES" -gt "$DOC_CEILING" ]; then
    echo "docs are $DOC_LINES lines, over the ceiling of $DOC_CEILING: cut, or raise it here on purpose" >&2
    exit 1
fi
echo "docs: $DOC_LINES lines (ceiling $DOC_CEILING)"

echo "== Go benchmark keep-list =="
# Wall time has one yardstick, bench/ (bash bench/run.sh); work counts are
# pinned by tier-1 tests. A Go benchmark outside bench/ stays only where
# no bench/ row times its path, and is listed with its reason under
# docs/PERFORMANCE.md's "Go benchmarks that stay"; one that re-times a
# row fails here.
KEEP_LIST="$(sed -n '/^## Go benchmarks that stay/,/^## /p' docs/PERFORMANCE.md)"
UNLISTED=""
for B in $(git grep -h -o '^func Benchmark[A-Za-z0-9_]*' -- '*_test.go' ':!bench/' | sed 's/^func //'); do
    printf '%s\n' "$KEEP_LIST" | grep -q "\`$B\`" || UNLISTED="$UNLISTED $B"
done
if [ -n "$UNLISTED" ]; then
    echo "Go benchmarks missing from docs/PERFORMANCE.md's keep-list:$UNLISTED" >&2
    exit 1
fi

echo "== go test =="
# Includes the allocation gates — TestCampaignSerialAllocs,
# TestFig5SteadyCopiesPerPayloadByte, TestQuickstartSteadyBytesPerRun,
# TestSteadyAllocsPerEcho, TestSteadyAllocsPerTokenVisit,
# TestTopologyReset1000DoesNotAllocate, TestBuildIsLinearInHosts — and
# the pinned work counts of TestWorkCountsArePinned, which are tests
# because allocation and work counts are deterministic.
go test ./...

echo "== go test -race =="
go test -race ./...

echo "== bench/ module (vet + test) =="
# bench/ is a module of its own, so nothing above enters it, yet it calls
# root, campaign, service and internal/core API by name: a deletion there
# has to fail here, not in the next benchmark run.
(cd bench && go vet ./... && go test ./...)

echo "== fuzz (6 x 10 s) =="
# Ten seconds of coverage-guided inputs each, on top of the seed corpora
# `go test` already ran. Minimising each newly covered input is capped,
# or it would eat the whole budget. The record encoder and its template
# decoder are hand-written: the one must stay byte-for-byte what
# encoding/json would write, the other must read every input exactly as
# json.Unmarshal does or leave it to it; spec bytes come from tenants and
# must be answered with an error or an admitted spec that round-trips to
# the same hash; a journal is whatever a kill left on disk, and its scan
# must keep a prefix of whole records that scans to itself again; the FSL
# front end takes tenant-written source and must answer it with an error
# or a program that builds, dumps and encodes — never a panic; the engine
# is handed MODIFY-mangled and bit-flipped control frames by design and
# must drop what it cannot index, loaded or not — and an INIT blob that
# a bit error left decodable must be dropped or run, never panic it.
for FUZZ in ./campaign:FuzzRunRecordJSON ./campaign:FuzzParseSpec \
    ./campaign/service:FuzzScanRecords \
    ./internal/fsl:FuzzCompile ./internal/core:FuzzControlFrame \
    ./internal/core:FuzzInitBlob; do
    go test -run '^$' -fuzz "^${FUZZ#*:}\$" -fuzztime 10s -fuzzminimizetime 1s "${FUZZ%%:*}"
done

echo "== campaign smoke (-race, small matrix) =="
# An end-to-end campaign through the real CLI: 8 runs (4 seeds x 2 bit
# error rates) of the quickstart drop scenario on 4 workers, under the
# race detector. Exercises the worker pool, the ordered JSONL flush and
# the summary path the way a user would.
go run -race ./cmd/vwcampaign \
    -script scripts/quickstart_drop.fsl \
    -tcp node1:0x6000-node2:0x4000:16384 \
    -seeds 4 -ber 0,1e-6 -workers 4 -horizon 30s \
    -summary none

echo "== sharded engine identity smoke =="
# The sharded windowed engine must be byte-identical to its one-shard
# run: same fat-tree campaign through the real CLI at 1 and 4 shards,
# diffed record-for-record — from quick flags at 64 and at 4096 hosts,
# then from a spec file that samples metrics, series included. (The
# property over every scenario lives in the shard columns of
# identity_test.go and campaign/identity_test.go; this catches CLI-level
# plumbing regressions.)
SHARD_SPEC="$(mktemp -d)"
trap 'rm -rf "$SHARD_SPEC"' EXIT
go build -o "$SHARD_SPEC/" ./cmd/vwcampaign
shard_pair() { # hosts, manyflow flows:bytes, horizon
    for K in 1 4; do
        "$SHARD_SPEC/vwcampaign" \
            -hosts "$1" -topology fattree -manyflow "$2" \
            -seeds 2 -horizon "$3" -workers 1 -summary none \
            -shards $K -out "$SHARD_SPEC/flags$K.jsonl"
    done
    if ! cmp -s "$SHARD_SPEC/flags1.jsonl" "$SHARD_SPEC/flags4.jsonl"; then
        echo "sharded identity smoke: $1-host 4-shard JSONL differs from 1-shard" >&2
        diff "$SHARD_SPEC/flags1.jsonl" "$SHARD_SPEC/flags4.jsonl" >&2 || true
        exit 1
    fi
}
shard_pair 64 8:4096 5s
shard_pair 4096 32:4096 200ms
for K in 1 4; do
    cat > "$SHARD_SPEC/spec$K.json" <<EOF
{"name": "sampled-shards", "seed": 3, "seed_count": 2, "hosts": 64, "horizon": "200ms",
 "configs": [{"label": "fattree", "shards": $K, "metrics_sample_interval": "20ms",
              "topology": {"kind": "fattree"}}],
 "workloads": [{"kind": "manyflow", "flows": 8, "bytes": 4096}]}
EOF
    "$SHARD_SPEC/vwcampaign" -spec "$SHARD_SPEC/spec$K.json" -workers 1 -summary none \
        -out "$SHARD_SPEC/out$K.jsonl"
done
if ! grep -q '"series"' "$SHARD_SPEC/out1.jsonl" || ! cmp -s "$SHARD_SPEC/out1.jsonl" "$SHARD_SPEC/out4.jsonl"; then
    echo "sharded identity smoke: sampled 4-shard records differ from 1-shard, or hold no series" >&2
    exit 1
fi
echo "sharded identity smoke: 1-shard and 4-shard records identical, sampled series included"

echo "== fabric failover smoke =="
# The fabric fault surface end to end through the real CLI: a 4-switch
# ring loses its first tree trunk 5ms in, mid-ManyFlow. Spanning-tree
# failover must promote the redundant trunk (fabric/failovers >= 1 per
# run), every flow must still complete over the new tree (goodput
# recovers: received == sent in every record), and the 4-shard/4-worker
# run must be byte-identical to the serial one with the fault axis on.
FAIL_A="$(mktemp)"
FAIL_B="$(mktemp)"
FAIL_SUM="$(mktemp)"
trap 'rm -f "$FAIL_A" "$FAIL_B" "$FAIL_SUM"; rm -rf "$SHARD_SPEC"' EXIT
go run ./cmd/vwcampaign \
    -hosts 24 -topology ring:4 -manyflow 12:65536 \
    -trunk-fail 0@5ms \
    -seeds 2 -horizon 10s -workers 1 -summary json -summary-out "$FAIL_SUM" \
    -shards 1 -out "$FAIL_A"
go run ./cmd/vwcampaign \
    -hosts 24 -topology ring:4 -manyflow 12:65536 \
    -trunk-fail 0@5ms \
    -seeds 2 -horizon 10s -workers 4 -summary none \
    -shards 4 -out "$FAIL_B"
if ! cmp -s "$FAIL_A" "$FAIL_B"; then
    echo "failover smoke: 4-shard/4-worker JSONL differs from serial with trunk fault" >&2
    diff "$FAIL_A" "$FAIL_B" >&2 || true
    exit 1
fi
if grep -q '"received"' "$FAIL_A" && grep -v '"sent":12,"received":12' "$FAIL_A" | grep -q '"received"'; then
    echo "failover smoke: flows did not all complete after trunk death" >&2
    grep -o '"sent":[0-9]*,"received":[0-9]*' "$FAIL_A" >&2 || true
    exit 1
fi
FAILOVERS="$(grep -o '"fabric/failovers": *[0-9][0-9.e+]*' "$FAIL_SUM" | awk -F: '{ print $2 + 0 }')"
if [ -z "$FAILOVERS" ] || ! awk -v f="$FAILOVERS" 'BEGIN { exit !(f >= 2) }'; then
    echo "failover smoke: fabric/failovers = ${FAILOVERS:-missing}, want >= 2 (one per run)" >&2
    exit 1
fi
echo "failover smoke: records identical across shards/workers, flows complete, failovers = $FAILOVERS"

echo "== reconvergence time gate =="
# Reconvergence cost regression: total reconvergence time across the
# smoke's runs must stay within 2ms per failover (the default delay is
# 1ms; the bound catches coalescing or scheduling regressions that
# silently stretch the blackhole window).
RECONV_NS="$(grep -o '"fabric/reconverge_ns_total": *[0-9][0-9.e+]*' "$FAIL_SUM" | awk -F: '{ print $2 + 0 }')"
if [ -z "$RECONV_NS" ]; then
    echo "reconvergence gate: fabric/reconverge_ns_total missing from summary" >&2
    exit 1
fi
if ! awk -v ns="$RECONV_NS" -v f="$FAILOVERS" 'BEGIN { exit !(ns <= f * 2000000) }'; then
    echo "reconvergence time regressed: $RECONV_NS ns across $FAILOVERS failovers (limit 2ms each)" >&2
    exit 1
fi
echo "reconvergence time: $RECONV_NS ns across $FAILOVERS failovers (limit 2ms each)"

echo "== campaign service smoke =="
# The daemon end to end, against real binaries (a SIGKILL must hit the
# daemon process itself, which `go run` would shield behind a parent):
# submit a ring:4 trunk-fault campaign over HTTP and byte-compare the
# streamed records and summary with an in-process run; then kill the
# daemon mid-campaign, restart it over the same journal, and check the
# resumed job still produces identical bytes; finally shut down cleanly
# on SIGTERM. See docs/SERVICE.md.
SVC_TMP="$(mktemp -d)"
trap 'rm -f "$FAIL_A" "$FAIL_B" "$FAIL_SUM"; rm -rf "$SHARD_SPEC" "$SVC_TMP"; [ -n "${SVC_PID:-}" ] && kill -9 "$SVC_PID" 2>/dev/null || true' EXIT
go build -o "$SVC_TMP/" ./cmd/vwcampaign ./cmd/vwcampaignd
cat > "$SVC_TMP/spec.json" <<'EOF'
{
  "name": "svc-smoke",
  "seed": 11,
  "seed_count": 24,
  "hosts": 24,
  "horizon": "10s",
  "configs": [
    {"label": "ring-fault",
     "topology": {"kind": "ring", "switches": 4},
     "trunk_faults": [{"kind": "trunk_down", "trunk": 0, "at": "5ms"}]}
  ],
  "workloads": [{"kind": "manyflow", "flows": 12, "bytes": 65536}]
}
EOF
"$SVC_TMP/vwcampaign" -spec "$SVC_TMP/spec.json" -out "$SVC_TMP/ref.jsonl" \
    -summary json -summary-out "$SVC_TMP/ref-summary.json"

svc_start() { # svc_start <logfile>; sets SVC_PID and SVC_ADDR
    "$SVC_TMP/vwcampaignd" -dir "$SVC_TMP/state" -listen 127.0.0.1:0 > "$1" 2>&1 &
    SVC_PID=$!
    SVC_ADDR=""
    for _ in $(seq 1 100); do
        SVC_ADDR="$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$1" | head -n 1)"
        [ -n "$SVC_ADDR" ] && break
        sleep 0.1
    done
    if [ -z "$SVC_ADDR" ]; then
        echo "service smoke: daemon did not come up" >&2
        cat "$1" >&2
        exit 1
    fi
}

svc_start "$SVC_TMP/daemon1.log"

# Admission: a spec no run could be built from (trunk 99 on a 4-trunk
# ring) is refused with the field to fix before -out is created. (The
# daemon's 400 for the same body is TestHTTPSubmitRejectsWhatNoRunCouldBuild.)
sed 's/"trunk": 0/"trunk": 99/' "$SVC_TMP/spec.json" > "$SVC_TMP/bad.json"
if "$SVC_TMP/vwcampaign" -spec "$SVC_TMP/bad.json" -out "$SVC_TMP/bad.jsonl" -summary none 2> "$SVC_TMP/bad.err"; then
    echo "service smoke: unbuildable spec accepted" >&2
    exit 1
fi
if ! grep -q 'configs\[0\]\.trunk_faults\[0\]\.trunk' "$SVC_TMP/bad.err" || [ -e "$SVC_TMP/bad.jsonl" ]; then
    echo "service smoke: refusal does not name the field, or -out was created:" >&2
    cat "$SVC_TMP/bad.err" >&2
    exit 1
fi

# Live-streamed records must be byte-identical to the in-process run.
"$SVC_TMP/vwcampaign" -addr "$SVC_ADDR" -spec "$SVC_TMP/spec.json" \
    -out "$SVC_TMP/streamed.jsonl" \
    -summary json -summary-out "$SVC_TMP/streamed-summary.json" 2> /dev/null
if ! cmp -s "$SVC_TMP/ref.jsonl" "$SVC_TMP/streamed.jsonl"; then
    echo "service smoke: streamed JSONL differs from in-process run" >&2
    exit 1
fi
if ! cmp -s "$SVC_TMP/ref-summary.json" "$SVC_TMP/streamed-summary.json"; then
    echo "service smoke: remote summary differs from in-process run" >&2
    exit 1
fi

# SIGKILL mid-campaign, restart over the same journal, resume.
SVC_JOB="$("$SVC_TMP/vwcampaign" -addr "$SVC_ADDR" -spec "$SVC_TMP/spec.json" -workers 1 -detach)"
SVC_DONE=0
for _ in $(seq 1 600); do
    SVC_DONE="$("$SVC_TMP/vwcampaign" -addr "$SVC_ADDR" -status "$SVC_JOB" \
        | sed -n 's/.*"completed": \([0-9]*\).*/\1/p')"
    [ "${SVC_DONE:-0}" -ge 2 ] && break
    sleep 0.05
done
if [ "${SVC_DONE:-0}" -lt 2 ] || [ "$SVC_DONE" -ge 24 ]; then
    echo "service smoke: wanted to kill mid-campaign, but completed=$SVC_DONE of 24" >&2
    exit 1
fi
kill -9 "$SVC_PID"
wait "$SVC_PID" 2> /dev/null || true

svc_start "$SVC_TMP/daemon2.log"
if ! grep -q 'resuming from run' "$SVC_TMP/daemon2.log"; then
    echo "service smoke: restarted daemon did not resume the interrupted job" >&2
    cat "$SVC_TMP/daemon2.log" >&2
    exit 1
fi
# The streamed job had finished before the kill: the restarted daemon
# serves it from its terminal record.
SVC_FIRST="$("$SVC_TMP/vwcampaign" -addr "$SVC_ADDR" -status j000001)"
if ! echo "$SVC_FIRST" | grep -q '"state": "done"' || ! echo "$SVC_FIRST" | grep -q '"completed": 24,'; then
    echo "service smoke: finished job j000001 did not survive the restart: $SVC_FIRST" >&2
    exit 1
fi
"$SVC_TMP/vwcampaign" -addr "$SVC_ADDR" -attach "$SVC_JOB" \
    -out "$SVC_TMP/resumed.jsonl" -summary none
if ! cmp -s "$SVC_TMP/ref.jsonl" "$SVC_TMP/resumed.jsonl"; then
    echo "service smoke: resumed JSONL differs from uninterrupted in-process run" >&2
    exit 1
fi
SVC_STATUS="$("$SVC_TMP/vwcampaign" -addr "$SVC_ADDR" -status "$SVC_JOB")"
echo "$SVC_STATUS" | grep -q '"state": "done"' || {
    echo "service smoke: resumed job did not finish: $SVC_STATUS" >&2
    exit 1
}
echo "$SVC_STATUS" | grep -q '"resumed_from": [1-9]' || {
    echo "service smoke: job does not report a resume point: $SVC_STATUS" >&2
    exit 1
}
# A job ends in one file, status.json; summary.json is no longer written.
if ls "$SVC_TMP"/state/jobs/*/summary.json > /dev/null 2>&1; then
    echo "service smoke: a job directory holds summary.json" >&2
    exit 1
fi

kill -TERM "$SVC_PID"
wait "$SVC_PID"
echo "service smoke: streamed and resumed records byte-identical, clean shutdown"

echo "== vwire smoke (one tap, one reading model) =="
# The scenario CLI end to end: node1 carries one tap that both traces and
# writes the pcap, and the echo client's RTT histogram, a pull source
# like every other reading, reaches the Prometheus export as 10 bounds
# plus +Inf. A capture that cannot be written fails the run.
VW_TMP="$(mktemp -d)"
trap 'rm -f "$FAIL_A" "$FAIL_B" "$FAIL_SUM"; rm -rf "$SHARD_SPEC" "$SVC_TMP" "$VW_TMP"; [ -n "${SVC_PID:-}" ] && kill -9 "$SVC_PID" 2>/dev/null || true' EXIT
go build -o "$VW_TMP/" ./cmd/vwire
"$VW_TMP/vwire" -script scripts/udp_faults.fsl -scenario dup_one \
    -echo node1-node2:9000:50 -trace -pcap "$VW_TMP/c.pcap" \
    -metrics-out "$VW_TMP/m.prom" > /dev/null
PCAP_BYTES="$(wc -c < "$VW_TMP/c.pcap")"
if [ "$PCAP_BYTES" -le 24 ]; then
    echo "vwire smoke: pcap is $PCAP_BYTES bytes, no frame record after the header" >&2
    exit 1
fi
RTT_BUCKETS="$(grep -c '^vw_workload_udp_echo_rtt_seconds_bucket' "$VW_TMP/m.prom" || true)"
if [ "$RTT_BUCKETS" -ne 11 ]; then
    echo "vwire smoke: $RTT_BUCKETS RTT histogram bucket lines in the export, want 11" >&2
    exit 1
fi
if "$VW_TMP/vwire" -script scripts/udp_faults.fsl -scenario dup_one \
    -echo node1-node2:9000:50 -pcap /dev/full > /dev/null 2>&1; then
    echo "vwire smoke: a run whose capture cannot be written exited 0" >&2
    exit 1
fi
echo "vwire smoke: pcap $PCAP_BYTES bytes, $RTT_BUCKETS RTT bucket lines, unwritable capture fails"

echo "== bench smoke (one iteration) =="
# Each benchmark that stays runs exactly once: catches one that no longer
# compiles or crashes, without paying measurement time. Measurements are
# bench/'s.
go test -run '^$' -bench . -benchtime=1x ./... > /dev/null

echo "All checks passed."
