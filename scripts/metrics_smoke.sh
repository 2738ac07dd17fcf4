#!/bin/sh
# Observability smoke: a single-process vcserve demo, one streamed
# verified query with the -timing trailer, then every monitoring surface
# an operator scrapes — /metrics (Prometheus text), /metrics.json
# (mergeable obs.Export), /debug/slowlog, /debug/pprof/ — both on the
# query port and on the standalone -debug-addr listener. This is the
# verbatim-tested form of docs/OPERATIONS.md § "Monitoring" and is run
# by CI's docs-hygiene job and `make metrics-smoke`.
set -eu

workdir="$(mktemp -d)"
SRV=""
cleanup() {
    [ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

go build -o "$workdir" ./cmd/vcserve ./cmd/vcquery

# 1. Demo publisher: self-signs 300 records, writes the client
#    parameters, and serves diagnostics on a second listener as a
#    firewalled deployment would. -slow-query 1ns retains every request
#    in the slow log so the smoke can assert on it.
"$workdir/vcserve" -n 300 -params "$workdir/params.vcqr" -addr 127.0.0.1:18090 \
    -debug-addr 127.0.0.1:18091 -slow-query 1ns &
SRV=$!

wait_healthy() {
    i=0
    while [ $i -lt 50 ]; do
        curl -fsS "$1/healthz" >/dev/null 2>&1 && return 0
        i=$((i + 1))
        sleep 0.2
    done
    echo "$1 never became healthy" >&2
    exit 1
}
wait_healthy http://127.0.0.1:18090

# 2. Traffic: one streamed verified query asking for the advisory timing
#    trailer, so the stage histograms and the slow log have entries.
"$workdir/vcquery" -url http://127.0.0.1:18090 -params "$workdir/params.vcqr" \
    -role manager -lo 1 -hi 4000000000 -stream -timing | tee "$workdir/q.out"
grep -q "stream VERIFIED" "$workdir/q.out"
grep -q "server-side breakdown" "$workdir/q.out"

# 3. Prometheus text on the query port: serving counters and the
#    per-stage latency histograms.
curl -fsS -o "$workdir/metrics.out" http://127.0.0.1:18090/metrics
head -n 20 "$workdir/metrics.out"
grep -q '^vcqr_queries_total' "$workdir/metrics.out"
grep -q 'vcqr_stage_seconds_count{stage="stream_total"' "$workdir/metrics.out"

# 4. The mergeable JSON export a coordinator scrapes from its nodes.
curl -fsS http://127.0.0.1:18090/metrics.json | grep -q '"Role": "server"'

# 5. The slow-query log: the stream above must be retained, traced and
#    broken down by stage.
curl -fsS http://127.0.0.1:18090/debug/slowlog | tee "$workdir/slow.out"
echo
grep -q '"Op": "stream"' "$workdir/slow.out"

# 6. pprof and expvar are mounted on the query port and on the
#    standalone debug listener.
curl -fsS http://127.0.0.1:18090/debug/pprof/ >/dev/null
curl -fsS http://127.0.0.1:18091/debug/pprof/ >/dev/null
curl -fsS http://127.0.0.1:18091/debug/vars | grep -q vcqr_server
curl -fsS http://127.0.0.1:18091/debug/slowlog | grep -q '"Op": "stream"'

echo "metrics smoke OK"
