package server

import "vcqr/internal/core"

// ShardSlice exposes the current store entry of one shard slice — an
// AddPartition relation's or a node-mode install's — to the external
// tests that compare the two delta paths state for state.
func (s *Server) ShardSlice(rel string, shard int) (*core.SignedRelation, bool) {
	sl, _, ok := s.store.View(shardName(rel, shard))
	return sl, ok
}
