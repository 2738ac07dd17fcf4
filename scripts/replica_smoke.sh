#!/bin/sh
# Replicated cluster smoke: 1 coordinator + 3 shard nodes at R=2 as
# separate OS processes. One node dies the hard way (SIGKILL) under
# query traffic; every verified stream must still answer, and the
# routing table must demote the dead node once its lease lapses. This
# script is the verbatim-tested form of the README's "R-way replication"
# quickstart and is run by CI's cluster-smoke job.
set -eu

workdir="$(mktemp -d)"
NODE1=""; NODE2=""; NODE3=""; COORD=""
cleanup() {
    for pid in "$COORD" "$NODE1" "$NODE2" "$NODE3"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

go build -o "$workdir" ./cmd/vcsign ./cmd/vcserve ./cmd/vcquery

# 1. Owner: sign a 3-shard publication.
"$workdir/vcsign" -n 300 -shards 3 -out "$workdir/emp.vcqr" -params "$workdir/params.vcqr"

# 2. Three shard nodes — at R=2 every slice lands on two of them, so
#    any single death leaves a live copy of everything.
"$workdir/vcserve" -node -params "$workdir/params.vcqr" -addr 127.0.0.1:18181 &
NODE1=$!
"$workdir/vcserve" -node -params "$workdir/params.vcqr" -addr 127.0.0.1:18182 &
NODE2=$!
"$workdir/vcserve" -node -params "$workdir/params.vcqr" -addr 127.0.0.1:18183 &
NODE3=$!

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
wait_healthy http://127.0.0.1:18181
wait_healthy http://127.0.0.1:18182
wait_healthy http://127.0.0.1:18183

# 3. Coordinator at R=2 with short leases: heartbeats every 300ms keep
#    routing's picture of liveness about a second behind reality.
"$workdir/vcserve" -coordinator -load "$workdir/emp.vcqr" -params "$workdir/params.vcqr" \
    -nodes http://127.0.0.1:18181,http://127.0.0.1:18182,http://127.0.0.1:18183 \
    -replicas 2 -lease-ttl 1s -heartbeat 300ms -addr 127.0.0.1:18180 &
COORD=$!
wait_healthy http://127.0.0.1:18180

# 4. Both copies are visible in the control plane: every shard lists
#    two replicas.
curl -fsS http://127.0.0.1:18180/admin/routing | tee "$workdir/routing1.out"
echo
grep -q '"Replicas":2' "$workdir/routing1.out"

# 5. Healthy-path verified stream across all shards.
"$workdir/vcquery" -url http://127.0.0.1:18180 -params "$workdir/params.vcqr" \
    -role manager -lo 1 -hi 4000000000 -stream | tee "$workdir/q1.out"
grep -q "stream VERIFIED" "$workdir/q1.out"

# 6. Kill node 3 the hard way — no drain, no goodbye.
kill -9 "$NODE3"
NODE3=""

# 7. Every query keeps answering: sub-streams that hit the dead copy
#    fail over to the surviving sibling, byte-exactly, under the
#    unmodified verifier. Run several to cross the lease expiry.
i=0
while [ $i -lt 5 ]; do
    "$workdir/vcquery" -url http://127.0.0.1:18180 -params "$workdir/params.vcqr" \
        -role manager -lo 1 -hi 4000000000 -stream | tee "$workdir/qk$i.out"
    grep -q "stream VERIFIED" "$workdir/qk$i.out"
    i=$((i + 1))
    sleep 0.4
done

# 8. The lease lapsed: routing shows the dead node demoted — expired,
#    not deleted; it would rejoin on its next acknowledged heartbeat.
curl -fsS http://127.0.0.1:18180/admin/routing | tee "$workdir/routing2.out"
echo
grep -q '"State":"expired"' "$workdir/routing2.out"

# 9. Counters an operator reads: failovers and demotions on /statsz.
curl -fsS http://127.0.0.1:18180/statsz | tee "$workdir/stats.out"
echo
grep -q '"Demotions":' "$workdir/stats.out"

echo "replica smoke OK"
