package server

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
)

// This file is the partitioned half of the server: a range-partitioned
// relation (internal/partition) is hosted as K independent store entries
// — one per shard slice — so each shard has its own copy-on-write epoch,
// and its own writer lock. That independence is the point of the whole
// layer:
//
//   - a delta touching shard i clones, validates and swaps O(n/K)
//     records instead of O(n), under a lock no other shard contends on;
//   - a stream pins exactly the slices it covers, so it keeps verifying
//     against its pinned epochs no matter which shards cut over
//     mid-drain.
//
// The one cross-shard obligation is the hand-off: adjacent slices mirror
// each other's edge records (partition's context records), and a
// boundary-crossing delta must refresh both sides. Deltas do that under
// a per-partition mutex with mirror stitching plus seam re-validation;
// readers pin cover sets optimistically and re-pin on the (rare)
// hand-off mismatch observed mid-cutover.

// Partition serving errors.
var (
	// ErrShardUnderflow rejects a delta that would leave a shard with no
	// owned records; shard rebalancing is an owner-side operation, not
	// something a live delta may force.
	ErrShardUnderflow = errors.New("server: delta would leave a shard without records; repartition required")
	// ErrShardPin reports a cover set whose hand-offs would not settle
	// while pinning — sustained boundary-delta churn; the query should be
	// retried.
	ErrShardPin = errors.New("server: shard hand-offs unstable while pinning epoch set")
	// ErrAlreadyHosted rejects hosting two publications under one name.
	ErrAlreadyHosted = errors.New("server: relation name already hosted")
)

// partTable is the serving state of one partitioned relation.
type partTable struct {
	spec   partition.Spec
	params core.Params
	schema relation.Schema

	// deltaMu serializes partitioned deltas for this relation so mirror
	// stitching sees a stable neighbourhood; queries never take it.
	deltaMu sync.Mutex

	fanouts        atomic.Uint64
	handoffRetries atomic.Uint64
	shardQueries   []atomic.Uint64
	shardDeltas    []atomic.Uint64
}

// shardName is the store key of one shard slice. The NUL byte keeps the
// namespace disjoint from user relation names.
func shardName(rel string, i int) string {
	return rel + "\x00shard" + strconv.Itoa(i)
}

// partFor returns the partition table for a relation, or nil.
func (s *Server) partFor(name string) *partTable {
	s.partMu.RLock()
	pt := s.parts[name]
	s.partMu.RUnlock()
	return pt
}

// AddPartition publishes a partitioned relation: every shard slice
// becomes its own store entry with an independent epoch. With validate
// set, the whole set is checked first — hand-off agreement, span
// containment, and the full digest/signature validation of the stitched
// global sequence — exactly what a publisher owes an untrusted owner
// feed.
func (s *Server) AddPartition(set *partition.Set, validate bool) error {
	if validate {
		if err := set.Validate(s.h, s.pub); err != nil {
			return err
		}
	} else if err := set.Spec.Validate(); err != nil {
		return err
	}
	if len(set.Slices) != set.Spec.K() {
		return fmt.Errorf("%w: %d slices for %d shards", partition.ErrSetInvalid, len(set.Slices), set.Spec.K())
	}
	name := set.Spec.Relation
	// partMu is held across the whole registration: the duplicate check,
	// the per-shard store writes, and the table insert must be atomic
	// against a concurrent AddPartition of the same name, or interleaved
	// AddNamed calls could mix two sets' slices. Registration is rare;
	// queries only take the read lock.
	s.partMu.Lock()
	defer s.partMu.Unlock()
	if _, dup := s.parts[name]; dup {
		return fmt.Errorf("%w: %q", ErrAlreadyHosted, name)
	}
	if s.nodeFor(name) != nil {
		return fmt.Errorf("%w: %q (node mode)", ErrAlreadyHosted, name)
	}
	if _, _, hosted := s.store.View(name); hosted {
		// Already hosted as an unpartitioned relation; registering the
		// partition would silently shadow it in the query router.
		return fmt.Errorf("%w: %q", ErrAlreadyHosted, name)
	}
	for i, sl := range set.Slices {
		s.store.AddNamed(shardName(name, i), sl)
	}
	s.parts[name] = &partTable{
		spec:         set.Spec,
		params:       set.Slices[0].Params,
		schema:       set.Slices[0].Schema,
		shardQueries: make([]atomic.Uint64, set.Spec.K()),
		shardDeltas:  make([]atomic.Uint64, set.Spec.K()),
	}
	return nil
}

// pinnedCover is the epoch set one partitioned query runs against.
type pinnedCover struct {
	slices []engine.ShardSlice
	// prev is the slice preceding the cover (nil when the cover starts
	// at shard 0), pinned together with the cover so the empty-range
	// predecessor material — the one thing a fan-out may need from it —
	// is epoch-consistent with the first covering slice.
	prev *core.SignedRelation
}

// pinRetries bounds the optimistic re-pin loop. Hand-off mismatches only
// occur in the instants between a boundary-crossing delta's per-shard
// swaps, so a handful of retries always suffices outside adversarial
// delta storms.
const pinRetries = 32

// pinCover pins one consistent epoch slice per covering shard, plus the
// preceding shard when the cover does not start at shard 0: every
// adjacent pair (including prev/first) must agree on its hand-off
// records, otherwise a boundary delta is mid-cutover and the whole set
// is re-pinned — re-viewing everything is what lets the loop converge
// once the delta's swaps complete.
func (s *Server) pinCover(pt *partTable, sub []partition.SubRange) (pinnedCover, error) {
	name := pt.spec.Relation
	for attempt := 0; attempt < pinRetries; attempt++ {
		pc := pinnedCover{slices: make([]engine.ShardSlice, len(sub))}
		ok := true
		for i, sr := range sub {
			sl, _, found := s.store.View(shardName(name, sr.Shard))
			if !found {
				return pinnedCover{}, fmt.Errorf("%w: %q", engine.ErrUnknownRelation, name)
			}
			pc.slices[i] = engine.ShardSlice{Shard: sr.Shard, SR: sl, Lo: sr.Lo, Hi: sr.Hi}
			if i > 0 && !partition.HandoffOK(pc.slices[i-1].SR, sl) {
				ok = false
				break
			}
		}
		if ok && sub[0].Shard > 0 {
			prev, _, found := s.store.View(shardName(name, sub[0].Shard-1))
			if !found {
				return pinnedCover{}, fmt.Errorf("%w: %q", engine.ErrUnknownRelation, name)
			}
			if partition.HandoffOK(prev, pc.slices[0].SR) {
				pc.prev = prev
			} else {
				ok = false
			}
		}
		if ok {
			return pc, nil
		}
		pt.handoffRetries.Add(1)
		runtime.Gosched()
	}
	return pinnedCover{}, ErrShardPin
}

// prevPin exposes the cover's pinned preceding slice to the fan-out.
func (pc pinnedCover) prevPin() engine.PrevPin {
	if pc.prev == nil {
		return nil
	}
	return func() (*core.SignedRelation, bool) { return pc.prev, true }
}

// planPartitioned resolves the role, computes the effective query, and
// decomposes it over the shards — everything a partitioned execution
// needs before any slice is pinned or scanned.
func (s *Server) planPartitioned(pt *partTable, roleName string, q engine.Query) (accessctl.Role, engine.Query, []partition.SubRange, error) {
	role, eff, err := engine.PlanQuery(s.policy, pt.params, pt.schema, roleName, q)
	if err != nil {
		return role, engine.Query{}, nil, err
	}
	sub := pt.spec.Decompose(eff.KeyLo, eff.KeyHi)
	for _, sr := range sub {
		pt.shardQueries[sr.Shard].Add(1)
	}
	if len(sub) > 1 {
		pt.fanouts.Add(1)
	}
	return role, eff, sub, nil
}

// partitionedStream plans, pins and launches a fan-out stream for one
// query.
func (s *Server) partitionedStream(pt *partTable, roleName string, q engine.Query, opts engine.StreamOpts) (engine.ResultStream, error) {
	role, eff, sub, err := s.planPartitioned(pt, roleName, q)
	if err != nil {
		return nil, err
	}
	pc, err := s.pinCover(pt, sub)
	if err != nil {
		return nil, err
	}
	return s.exec.FanoutStream(role, eff, pc.slices, pc.prevPin(), opts)
}

// applyPartitionedDelta runs the node tier's delta protocol with all K
// shards co-hosted: prepare (stageDelta — every mirror stitch is local
// and every touched neighbourhood validates against fresh mirrors), then
// the coordinator's seam check over the staged edge material, then the
// node tier's publish — one epoch swap per modified shard. A failure
// anywhere leaves every published epoch untouched.
func (s *Server) applyPartitionedDelta(pt *partTable, d delta.Delta) (uint64, error) {
	pt.deltaMu.Lock()
	defer pt.deltaMu.Unlock()

	name := pt.spec.Relation
	news, affected, err := s.stageDelta(pt.spec, d, func(int) bool { return true })
	if err != nil {
		return 0, err
	}

	// Seam re-validation. Per-shard validation skipped the signatures of
	// context records (each slice sees only its side of a hand-off).
	// Re-prove both hand-off signatures of every seam adjacent to a
	// modified shard — a delta that re-signed one side of a boundary
	// without the matching neighbour op dies here, before anything
	// publishes.
	edges := func(i int) (partition.Edges, error) {
		if sl := news[i]; sl != nil {
			return partition.EdgesOf(sl), nil
		}
		sl, _, ok := s.store.View(shardName(name, i))
		if !ok {
			return partition.Edges{}, fmt.Errorf("%w: %q", engine.ErrUnknownRelation, name)
		}
		return partition.EdgesOf(sl), nil
	}
	seams := map[int]bool{} // seam x is between shards x and x+1
	for i := range news {
		if i > 0 {
			seams[i-1] = true
		}
		if i < pt.spec.K()-1 {
			seams[i] = true
		}
	}
	for _, x := range slices.Sorted(maps.Keys(seams)) {
		left, err := edges(x)
		if err != nil {
			return 0, err
		}
		right, err := edges(x + 1)
		if err != nil {
			return 0, err
		}
		if err := partition.CheckSeam(s.h, s.pub, pt.params, left, right); err != nil {
			return 0, fmt.Errorf("server: delta rejected: seam %d-%d: %w", x, x+1, err)
		}
	}

	epoch := s.publishSlices(name, news)
	for _, i := range affected {
		pt.shardDeltas[i].Add(1)
	}
	return epoch, nil
}

// PartitionStats is the per-partition slice of a Stats snapshot.
type PartitionStats struct {
	// Shards has one entry per shard, in shard order.
	Shards []ShardStat
	// Fanouts counts multi-shard covers; HandoffRetries counts epoch-set
	// re-pins forced by boundary deltas mid-cutover.
	Fanouts, HandoffRetries uint64
}

// ShardStat is one shard's counters.
type ShardStat struct {
	// Queries counts sub-queries routed to the shard (a fan-out touches
	// several shards and counts once on each).
	Queries uint64
	// Deltas counts delta sub-batches applied to the shard.
	Deltas uint64
	// Epoch is the shard's current store epoch.
	Epoch uint64
	// Records is the shard's owned record count.
	Records int
}

// partitionStats snapshots every partition's counters.
func (s *Server) partitionStats() map[string]PartitionStats {
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	if len(s.parts) == 0 {
		return nil
	}
	out := make(map[string]PartitionStats, len(s.parts))
	for name, pt := range s.parts {
		ps := PartitionStats{
			Shards:         make([]ShardStat, pt.spec.K()),
			Fanouts:        pt.fanouts.Load(),
			HandoffRetries: pt.handoffRetries.Load(),
		}
		for i := range ps.Shards {
			ps.Shards[i] = ShardStat{
				Queries: pt.shardQueries[i].Load(),
				Deltas:  pt.shardDeltas[i].Load(),
			}
			if sl, epoch, ok := s.store.View(shardName(name, i)); ok {
				ps.Shards[i].Epoch = epoch
				ps.Shards[i].Records = sl.Len()
			}
		}
		out[name] = ps
	}
	return out
}
