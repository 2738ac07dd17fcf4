package server

import (
	"vcqr/internal/core"
	"vcqr/internal/hashx"
)

// ShardSlice exposes the current published slice of one hosted shard — an
// AddPartition relation's or a node-mode install's — to the external
// tests that compare the two delta paths state for state.
func (s *Server) ShardSlice(rel string, shard int) (*core.SignedRelation, bool) {
	nt := s.nodeFor(rel)
	if nt == nil {
		return nil, false
	}
	nt.mu.Lock()
	defer nt.mu.Unlock()
	if hs := nt.hosted[shard]; hs != nil {
		return hs.sl, true
	}
	return nil, false
}

// CachedDigest is one hosted slice's publish-time digest state: the
// published slice, the digest its publish left (nil: none computed
// yet) and its running digests (nil: none kept).
type CachedDigest struct {
	Slice  *core.SignedRelation
	Digest hashx.Digest
	Run    []byte
}

// CachedDigests returns the digest state of every slice of rel hosted
// here, computing nothing, so tests can hold the cache to the bytes.
func (s *Server) CachedDigests(rel string) map[int]CachedDigest {
	nt := s.nodeFor(rel)
	if nt == nil {
		return nil
	}
	nt.mu.Lock()
	defer nt.mu.Unlock()
	out := map[int]CachedDigest{}
	for i, hs := range nt.hosted {
		out[i] = CachedDigest{Slice: hs.sl, Digest: hs.digest, Run: hs.run}
	}
	return out
}
