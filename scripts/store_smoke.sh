#!/bin/sh
# Durable-store smoke: 1 coordinator + 3 shard nodes at R=2, every
# process backed by a -data-dir. One node dies the hard way (SIGKILL)
# under live query traffic, then restarts from its own WAL: it must
# rejoin with ZERO slices re-transferred ("Installs":0 on its fresh
# /statsz), self-check everything it recovered against the owner's
# public key, and serve verified streams again — while every query
# issued across the outage verifies (R=2 keeps a live copy of each
# shard). This is the verbatim-tested form of the README's durability
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

# 2. Three durable shard nodes: every install and committed delta is
#    WAL-appended before it is acknowledged.
"$workdir/vcserve" -node -params "$workdir/params.vcqr" \
    -data-dir "$workdir/node1" -addr 127.0.0.1:18191 &
NODE1=$!
"$workdir/vcserve" -node -params "$workdir/params.vcqr" \
    -data-dir "$workdir/node2" -addr 127.0.0.1:18192 &
NODE2=$!
"$workdir/vcserve" -node -params "$workdir/params.vcqr" \
    -data-dir "$workdir/node3" -addr 127.0.0.1:18193 &
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
wait_healthy http://127.0.0.1:18191
wait_healthy http://127.0.0.1:18192
wait_healthy http://127.0.0.1:18193

# 3. Coordinator at R=2 with short leases, its routing epochs and
#    staged-delta tokens persisted to its own -data-dir.
"$workdir/vcserve" -coordinator -load "$workdir/emp.vcqr" -params "$workdir/params.vcqr" \
    -nodes http://127.0.0.1:18191,http://127.0.0.1:18192,http://127.0.0.1:18193 \
    -replicas 2 -lease-ttl 1s -heartbeat 300ms \
    -data-dir "$workdir/coord" -addr 127.0.0.1:18190 &
COORD=$!
wait_healthy http://127.0.0.1:18190

# 4. Placement transferred slices: node 3's install counter is live.
curl -fsS http://127.0.0.1:18193/statsz | tee "$workdir/stats-pre.out"
echo
grep -q '"Installs":0' "$workdir/stats-pre.out" && {
    echo "node 3 took no installs at R=2 placement?" >&2
    exit 1
}

# 5. Healthy-path verified stream across all shards.
"$workdir/vcquery" -url http://127.0.0.1:18190 -params "$workdir/params.vcqr" \
    -role manager -lo 1 -hi 4000000000 -stream | tee "$workdir/q0.out"
grep -q "stream VERIFIED" "$workdir/q0.out"

# 6. Kill node 3 the hard way in the middle of live traffic: no drain,
#    no flush, no goodbye. Every query across the outage must verify —
#    at R=2 the surviving sibling answers for each dead copy.
i=0
while [ $i -lt 5 ]; do
    if [ $i -eq 2 ]; then
        kill -9 "$NODE3"
        NODE3=""
    fi
    "$workdir/vcquery" -url http://127.0.0.1:18190 -params "$workdir/params.vcqr" \
        -role manager -lo 1 -hi 4000000000 -stream | tee "$workdir/qk$i.out"
    grep -q "stream VERIFIED" "$workdir/qk$i.out"
    i=$((i + 1))
    sleep 0.3
done

# 7. Restart node 3 from its data directory. Its slices come off its
#    own WAL, are self-checked against the owner's key, and go straight
#    back into service.
"$workdir/vcserve" -node -params "$workdir/params.vcqr" \
    -data-dir "$workdir/node3" -addr 127.0.0.1:18193 &
NODE3=$!
wait_healthy http://127.0.0.1:18193

# 8. The zero-re-transfer claim, as an operator would check it: the
#    restarted process recovered from disk (one cold start) and accepted
#    ZERO slices over the transfer wire.
curl -fsS http://127.0.0.1:18193/statsz | tee "$workdir/stats-post.out"
echo
grep -q '"Installs":0' "$workdir/stats-post.out"
grep -q '"ColdStarts":1' "$workdir/stats-post.out"

# 9. After the next acknowledged heartbeat the lease renews: routing
#    lists no expired copies, and streams verify end to end.
sleep 1.5
curl -fsS http://127.0.0.1:18190/admin/routing | tee "$workdir/routing.out"
echo
if grep -q '"State":"expired"' "$workdir/routing.out"; then
    echo "node 3 never rejoined routing after its restart" >&2
    exit 1
fi
"$workdir/vcquery" -url http://127.0.0.1:18190 -params "$workdir/params.vcqr" \
    -role manager -lo 1 -hi 4000000000 -stream | tee "$workdir/q1.out"
grep -q "stream VERIFIED" "$workdir/q1.out"

echo "store smoke OK"
