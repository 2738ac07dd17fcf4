#!/bin/sh
# Multi-process cluster smoke: 1 coordinator + 2 shard nodes as separate
# OS processes, a cross-node verified stream query, and one online
# rebalance. This script is the verbatim-tested form of the README's
# "Distributed serving" quickstart (the commands are the same, modulo
# $workdir paths) and is run by CI's cluster-smoke job.
set -eu

workdir="$(mktemp -d)"
NODE1=""; NODE2=""; COORD=""
cleanup() {
    for pid in "$COORD" "$NODE1" "$NODE2"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

go build -o "$workdir" ./cmd/vcsign ./cmd/vcserve ./cmd/vcquery

# 1. Owner: sign a 3-shard publication (writes the snapshot for
#    publishers and the authenticated client parameters for users).
"$workdir/vcsign" -n 300 -shards 3 -out "$workdir/emp.vcqr" -params "$workdir/params.vcqr"

# 2. Shard nodes: empty publishers awaiting coordinator installs. They
#    hold no data and no keys until slices arrive.
"$workdir/vcserve" -node -params "$workdir/params.vcqr" -addr 127.0.0.1:18081 &
NODE1=$!
"$workdir/vcserve" -node -params "$workdir/params.vcqr" -addr 127.0.0.1:18082 &
NODE2=$!

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
wait_healthy http://127.0.0.1:18081
wait_healthy http://127.0.0.1:18082

# 3. Coordinator: validates the untrusted snapshot against the owner's
#    key, places the 3 slices round-robin across the 2 nodes, serves the
#    same /stream /delta API a single-process vcserve serves.
"$workdir/vcserve" -coordinator -load "$workdir/emp.vcqr" -params "$workdir/params.vcqr" \
    -nodes http://127.0.0.1:18081,http://127.0.0.1:18082 -addr 127.0.0.1:18080 &
COORD=$!
wait_healthy http://127.0.0.1:18080

# 4. User: stream a range spanning all 3 shards (2 node processes),
#    verified chunk by chunk by the unmodified shard-aware verifier.
"$workdir/vcquery" -url http://127.0.0.1:18080 -params "$workdir/params.vcqr" \
    -role manager -lo 1 -hi 4000000000 -stream | tee "$workdir/q1.out"
grep -q "stream VERIFIED" "$workdir/q1.out"

# 5. Operator: migrate shard 1's span onto node 1, online.
curl -fsS -X POST "http://127.0.0.1:18080/admin/rebalance?shard=1&to=http://127.0.0.1:18081"
echo

# 6. The moved publication still verifies end to end, and the routing
#    swing is visible in the control plane.
"$workdir/vcquery" -url http://127.0.0.1:18080 -params "$workdir/params.vcqr" \
    -role manager -lo 1 -hi 4000000000 -stream | tee "$workdir/q2.out"
grep -q "stream VERIFIED" "$workdir/q2.out"
curl -fsS http://127.0.0.1:18080/admin/routing | tee "$workdir/routing.out"
echo
grep -q '"RoutingEpoch":2' "$workdir/routing.out"

# 7. Counters an operator reads: coordinator stats and one node's
#    hosted-slice inventory.
curl -fsS http://127.0.0.1:18080/statsz
echo
curl -fsS http://127.0.0.1:18081/statsz
echo

echo "cluster smoke OK"
