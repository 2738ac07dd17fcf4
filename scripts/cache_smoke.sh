#!/bin/sh
# Edge-cache smoke: 1 coordinator + 2 shard nodes + 1 untrusted cache
# peer as separate OS processes. A repeated verified stream query warms
# the tier (the admission gate needs to see a key twice
# before filling), then the script asserts the coordinator actually
# served from cache (Cache.Hits >= 1), then from its near store
# (Cache.NearHits >= 1), and that the peer holds entries.
# This is the verbatim-tested form of the README's "Edge caching"
# quickstart and is run by CI's cluster-smoke job.
set -eu

workdir="$(mktemp -d)"
NODE1=""; NODE2=""; PEER=""; COORD=""
cleanup() {
    for pid in "$COORD" "$PEER" "$NODE1" "$NODE2"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

go build -o "$workdir" ./cmd/vcsign ./cmd/vcserve ./cmd/vcquery

# 1. Owner: sign a 3-shard publication.
"$workdir/vcsign" -n 300 -shards 3 -out "$workdir/emp.vcqr" -params "$workdir/params.vcqr"

# 2. Shard nodes (hold the data) and one cache peer (holds nothing but
#    opaque bytes: no keys, no params — anything it garbles fails the
#    digest compare or the user's verifier and falls through to origin).
"$workdir/vcserve" -node -params "$workdir/params.vcqr" -addr 127.0.0.1:18181 &
NODE1=$!
"$workdir/vcserve" -node -params "$workdir/params.vcqr" -addr 127.0.0.1:18182 &
NODE2=$!
"$workdir/vcserve" -cache-node -addr 127.0.0.1:18190 &
PEER=$!

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
wait_healthy http://127.0.0.1:18190

# 3. Coordinator with the cache tier enabled via -cache-peers.
"$workdir/vcserve" -coordinator -load "$workdir/emp.vcqr" -params "$workdir/params.vcqr" \
    -nodes http://127.0.0.1:18181,http://127.0.0.1:18182 \
    -cache-peers http://127.0.0.1:18190 -addr 127.0.0.1:18180 &
COORD=$!
wait_healthy http://127.0.0.1:18180

# 4. Repeat one stream query until the tier reports a validated hit:
#    access 1 counts, access 2 admits and fills (asynchronously),
#    access 3 reads the peer, and access 4 onwards reads the
#    coordinator's memory (its near store). Every pass must verify.
hits=0
i=0
while [ $i -lt 25 ]; do
    "$workdir/vcquery" -url http://127.0.0.1:18180 -params "$workdir/params.vcqr" \
        -role manager -lo 1 -hi 4000000000 -stream | tee "$workdir/q.out"
    grep -q "stream VERIFIED" "$workdir/q.out"
    curl -fsS http://127.0.0.1:18180/statsz | tee "$workdir/stats.out"
    echo
    hits="$(sed -n 's/.*"Cache":{[^}]*"Hits":\([0-9]*\).*/\1/p' "$workdir/stats.out")"
    [ -n "$hits" ] && [ "$hits" -ge 1 ] && break
    i=$((i + 1))
    sleep 0.2
done
if [ -z "$hits" ] || [ "$hits" -lt 1 ]; then
    echo "coordinator never served a validated cache hit" >&2
    exit 1
fi

# 4b. One more pass: the peer hit above validated, so this one is
#     answered from the coordinator's near store, and must verify too.
"$workdir/vcquery" -url http://127.0.0.1:18180 -params "$workdir/params.vcqr" \
    -role manager -lo 1 -hi 4000000000 -stream | tee "$workdir/q.out"
grep -q "stream VERIFIED" "$workdir/q.out"
curl -fsS http://127.0.0.1:18180/statsz | tee "$workdir/stats.out"
echo
near="$(sed -n 's/.*"Cache":{[^}]*"NearHits":\([0-9]*\).*/\1/p' "$workdir/stats.out")"
if [ -z "$near" ] || [ "$near" -lt 1 ]; then
    echo "coordinator never answered a hit from its near store" >&2
    exit 1
fi

# 5. The peer's own counters: entries resident, and the hit visible from
#    the cache side too.
curl -fsS http://127.0.0.1:18190/statsz | tee "$workdir/peer.out"
echo
grep -q '"Entries":0' "$workdir/peer.out" && {
    echo "cache peer holds no entries after warmup" >&2
    exit 1
}

# 6. The same counters as Prometheus-style gauges on both /metrics.
curl -fsS http://127.0.0.1:18180/metrics | grep vcqr_cache_ | head -5
curl -fsS http://127.0.0.1:18190/metrics | head -5

echo "cache smoke OK"
