package server

import (
	"vcqr/internal/core"
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
