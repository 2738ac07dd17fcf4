// Package cache is the shared verified-VO edge-cache tier: standalone,
// untrusted, memcached-shaped peers (Server/Store) holding encoded
// chunk-frame byte ranges, and the coordinator-side Client that places
// keys over peers by consistent hashing, collapses concurrent misses
// with a singleflight table, and gates fills through a frequency-based
// admission rule.
//
// The tier works because of the paper's core property
// (conf_sigmod_PangJRT05): VOs are self-certifying, so a cached VO is
// exactly as good as a freshly assembled one — it verifies or it
// doesn't. A peer therefore stores opaque bytes and sits entirely
// outside the trust boundary. Defense is layered at the reader: a
// digest compare over the entry bytes (ErrSumMismatch), a strict
// structural decode for replayed sub-streams (ErrEntryMalformed), the
// coordinator's seam checks across shard hand-offs, and finally the
// user's unmodified verify.ShardStreamVerifier. Every layer fails
// toward origin: a poisoned entry costs one extra round trip, never a
// wrong answer.
//
// Freshness is epoch-exact, not TTL-based. Keys bind the relation, the
// partition spec version, the covering shard and its coordinator-side
// content epoch (whole merged streams bind the full epoch vector under
// Shard == StreamShard); delta commits and rebalance cutovers bump the
// epoch and push group invalidations, so a stale entry's key simply can
// no longer be asked for. See DESIGN.md "Edge caching" for the proof
// sketch of why interior deltas make exact keying load-bearing.
package cache
