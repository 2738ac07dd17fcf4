// Package cache is the shared verified-VO edge-cache tier: standalone,
// untrusted, memcached-shaped peers (Server/Store) holding merged result
// streams as the chunk-frame bytes the coordinator wrote to a client,
// and the coordinator-side Client that places keys over peers by
// consistent hashing, keeps at most one peer exchange per key in flight
// (a singleflight table that concurrent lookups wait on), and gates
// fills through a frequency-based admission rule. Every exchange with a
// peer runs on that peer's one client, bounded by the peer timeout.
// There is one kind of entry and one Lookup: a hit is written to the
// next client verbatim, nothing is decoded on the way. A peer hit that
// validates is also kept in the client's near store (the same Store type
// under a fixed budget), which answers that key's next lookups without
// a peer round trip.
//
// The tier works because of the paper's core property
// (conf_sigmod_PangJRT05): VOs are self-certifying, so a cached VO is
// exactly as good as a freshly assembled one — it verifies or it
// doesn't. A peer therefore stores opaque bytes and sits entirely
// outside the trust boundary. Defense is layered at the reader: a
// digest compare over the entry bytes (ErrSumMismatch), a frame walk
// that the bytes are one complete stream — header, entries, footer,
// nothing else (ErrEntryMalformed; the peer holds bytes and digest both,
// so it can forge a consistent pair) — and finally the user's unmodified
// verify.ShardStreamVerifier. The first two fail toward origin: a
// poisoned entry costs one extra round trip, never a wrong answer.
//
// Freshness is epoch-exact, not TTL-based. Keys bind the relation, the
// partition spec version and the coordinator-side content epochs of the
// shards the stream covers — one shard's epoch under that shard's
// group, several under Shard == StreamShard; delta commits and
// rebalance cutovers bump the epoch and push group invalidations, so a
// stale entry's key simply can no longer be asked for. See DESIGN.md
// "Edge caching" for why the covering shards' epochs are enough and why
// interior deltas make exact keying load-bearing.
package cache
