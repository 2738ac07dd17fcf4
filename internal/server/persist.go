package server

import (
	"fmt"
	"maps"
	"slices"

	"vcqr/internal/partition"
	"vcqr/internal/store"
)

// Cold-start recovery: republish what the durable store replayed from
// disk — but only after proving it. The store is untrusted by
// construction (like every other tier), so each recovered slice runs
// the full install-time validation plus a condensed-signature
// self-check (AggIndex.VerifyRange over the owned region) against the
// owner's public key before a byte of it is served. A slice a
// corrupted or rolled-back disk cannot prove is dropped — durably, via
// the store's own log — and the coordinator re-installs it: an honest
// refusal, never a wrong answer.

// RecoverReport lists what cold-start recovery published and refused.
type RecoverReport struct {
	// Published lists slices that passed the self-check and now serve
	// ("relation/shard"); Refused lists dropped ones with reasons.
	Published, Refused []string
}

// RecoverHosted verifies and republishes every slice the configured
// durable store recovered. Call once at startup, before serving.
func (s *Server) RecoverHosted() (*RecoverReport, error) {
	if s.nstore == nil {
		return nil, fmt.Errorf("server: no durable store configured")
	}
	rep := &RecoverReport{}
	recovered := s.nstore.Recovered()
	for _, name := range slices.Sorted(maps.Keys(recovered)) {
		rr := recovered[name]
		for _, sh := range rr.Shards {
			if err := s.recoverSlice(name, rr.Spec, sh); err != nil {
				rep.Refused = append(rep.Refused, fmt.Sprintf("%s/%d: %v", name, sh.Shard, err))
				// Make the refusal durable too, so the next restart does
				// not re-litigate a slice the coordinator has since
				// re-installed elsewhere. Best-effort: a failed drop only
				// costs a repeat refusal.
				s.nstore.LogRemove(name, sh.Shard)
				continue
			}
			rep.Published = append(rep.Published, fmt.Sprintf("%s/%d", name, sh.Shard))
		}
	}
	return rep, nil
}

// recoverSlice proves one recovered slice and publishes it into the
// table InstallShard uses (openTable) but appends nothing: the slice is
// already durable — that is where it came from.
func (s *Server) recoverSlice(name string, spec partition.Spec, sh store.RecoveredShard) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if sh.Shard < 0 || sh.Shard >= spec.K() {
		return fmt.Errorf("shard %d of %d", sh.Shard, spec.K())
	}
	sl := sh.Slice
	if err := s.validateSlice(spec, sh.Shard, sl); err != nil {
		return err
	}
	// The condensed-signature self-check: aggregate the owned region
	// [1, len-1) and verify it with one public-key exponentiation —
	// exactly the check an unmodified client would run on a VO drawn
	// from this slice. The two context records' signatures bind records
	// on other shards and are covered by the coordinator's seam checks,
	// as at install time.
	if err := sl.EnsureAggIndex(s.h, s.pub); err != nil {
		return err
	}
	ix := sl.AggIndex()
	n := len(sl.Recs)
	agg, err := ix.RangeAggregate(1, n-1)
	if err != nil {
		return err
	}
	if !ix.VerifyRange(1, n-1, agg) {
		return fmt.Errorf("recovered slice fails condensed-signature self-check")
	}

	nt, err := s.openTable(name, spec, sl, false)
	if err != nil {
		return err
	}
	defer nt.mu.Unlock()
	if spec.Version > nt.spec.Version {
		nt.spec = spec
	}
	hs := &hostedShard{installDigest: sh.InstallDigest}
	hs.deltas.Store(sh.Deltas)
	s.publish(hs, sl, nil, nil)
	nt.hosted[sh.Shard] = hs
	return nil
}

// storeStats snapshots the durable store for Stats; nil when the node
// runs memory-only.
func (s *Server) storeStats() *store.NodeStats {
	if s.nstore == nil {
		return nil
	}
	st := s.nstore.Stats()
	return &st
}
