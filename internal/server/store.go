package server

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/hashx"
	"vcqr/internal/sig"
)

// numShards spreads unrelated relations across independent writer locks
// so a delta landing on one relation never stalls ingest on another.
// Readers are lock-free regardless, so the count only bounds writer
// parallelism; 16 is plenty for a per-process publisher.
const numShards = 16

// relEntry pairs a hosted relation with the value of the global cutover
// counter at its last change — the per-relation epoch. Stamping epochs
// per relation (not per store shard) means a delta to one relation never
// moves the epoch of a shard sibling.
type relEntry struct {
	sr    *core.SignedRelation
	epoch uint64
}

// snapshot is one immutable epoch of a shard: the relation set as of the
// last cutover. Readers load it atomically and keep querying it even
// while a writer prepares the next epoch — the paper's guarantee makes
// this safe, because a VO assembled from any internally consistent signed
// relation verifies against the owner's key no matter when it was read.
type snapshot struct {
	rels map[string]relEntry
}

// shard is one lock domain of the store. The atomic pointer is the
// reader path; the mutex serializes writers only.
type shard struct {
	mu   sync.Mutex
	snap atomic.Pointer[snapshot]
}

// Store holds signed relations in sharded copy-on-write epochs. Readers
// call View and get an immutable snapshot without taking any lock;
// writers (AddRelation, ApplyDelta) clone what they change, validate the
// clone, and publish a new epoch with a single atomic swap. A query that
// started on epoch e keeps its snapshot alive (GC-rooted) until it
// finishes, so updates never invalidate in-flight VO assembly.
type Store struct {
	h      *hashx.Hasher
	pub    *sig.PublicKey
	shards [numShards]shard
	// epochs counts cutovers across all shards; it feeds stats and stamps
	// each relation's epoch, so any swap anywhere advances it.
	epochs atomic.Uint64
}

// NewStore creates an empty store validating against the owner's key.
func NewStore(h *hashx.Hasher, pub *sig.PublicKey) *Store {
	s := &Store{h: h, pub: pub}
	for i := range s.shards {
		s.shards[i].snap.Store(&snapshot{rels: map[string]relEntry{}})
	}
	return s
}

// shardFor maps a relation name to its lock domain.
func (s *Store) shardFor(name string) *shard {
	f := fnv.New32a()
	f.Write([]byte(name))
	return &s.shards[f.Sum32()%numShards]
}

// View returns the relation's current snapshot and its per-relation
// epoch, or false if the relation is not hosted. The returned relation
// is immutable: the store never mutates a published snapshot, it only
// swaps in successors.
func (s *Store) View(name string) (*core.SignedRelation, uint64, bool) {
	e, ok := s.shardFor(name).snap.Load().rels[name]
	return e.sr, e.epoch, ok
}

// AddRelation validates (optionally) and publishes a relation as a new
// epoch of its shard. The caller must not retain or mutate sr afterwards
// — it belongs to the store's published snapshot from here on.
func (s *Store) AddRelation(sr *core.SignedRelation, validate bool) error {
	if validate {
		if err := sr.Validate(s.h, s.pub); err != nil {
			return fmt.Errorf("server: ingest validation: %w", err)
		}
	}
	_ = s.AddNamed(sr.Schema.Name, sr)
	return nil
}

// AddNamed publishes a relation snapshot under an explicit store key,
// returning the new epoch. The partition layer uses it to host each
// shard slice of one relation as an independent entry — giving every
// shard its own epoch and writer lock. No validation happens here:
// slices cannot be validated in isolation (their edge signatures bind
// records the slice does not hold), so callers validate the whole set
// first (partition.Set.Validate) or at the delta layer.
//
// Publishing builds the snapshot's crypto index (core.AggIndex) when it
// does not carry one: the O(n) cost lands here, at publish time, so
// every query on the epoch gets O(log n) signature aggregation and every
// delta cutover derives the successor index incrementally. A build
// failure (malformed signature bytes on an unvalidated feed) publishes
// without an index — the correct-but-slow path.
func (s *Store) AddNamed(name string, sr *core.SignedRelation) uint64 {
	if sr.AggIndex() == nil {
		_ = sr.BuildAggIndex(s.h, s.pub)
	}
	sh := s.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.publish(sh, name, sr)
}

// ApplyDelta applies an owner update batch to the named relation live:
// the current epoch is cloned, the delta applied and its touched
// neighbourhood re-validated against the owner's key (delta.Apply), and
// the result cut over atomically. Queries in flight keep verifying on
// the old epoch; queries arriving after the swap see the new one. On any
// validation failure the published epoch is untouched.
func (s *Store) ApplyDelta(d delta.Delta) (uint64, error) {
	sh := s.shardFor(d.Relation)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, ok := sh.snap.Load().rels[d.Relation]
	if !ok {
		return 0, fmt.Errorf("server: delta for unhosted relation %q", d.Relation)
	}
	next := cur.sr.Clone()
	if err := delta.Apply(s.h, s.pub, next, d); err != nil {
		return 0, fmt.Errorf("server: delta rejected: %w", err)
	}
	return s.publish(sh, d.Relation, next), nil
}

// publish swaps in a new shard snapshot with the given relation stamped
// at a fresh epoch; sibling relations keep their epochs. Must be called
// with the shard's writer lock held.
func (s *Store) publish(sh *shard, name string, sr *core.SignedRelation) uint64 {
	old := sh.snap.Load()
	rels := make(map[string]relEntry, len(old.rels)+1)
	for k, v := range old.rels {
		rels[k] = v
	}
	epoch := s.epochs.Add(1)
	rels[name] = relEntry{sr: sr, epoch: epoch}
	sh.snap.Store(&snapshot{rels: rels})
	return epoch
}

// Remove unpublishes a store entry, reporting whether it existed. The
// removed snapshot stays valid for readers that already pinned it —
// removal swaps the shard's map, it never mutates a published epoch —
// which is what lets a migration drain a shard from a node while
// in-flight streams finish on their pinned slices.
func (s *Store) Remove(name string) bool {
	sh := s.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := sh.snap.Load()
	if _, ok := old.rels[name]; !ok {
		return false
	}
	rels := make(map[string]relEntry, len(old.rels)-1)
	for k, v := range old.rels {
		if k != name {
			rels[k] = v
		}
	}
	s.epochs.Add(1)
	sh.snap.Store(&snapshot{rels: rels})
	return true
}

// Epoch returns the global cutover counter.
func (s *Store) Epoch() uint64 { return s.epochs.Load() }

// Relations lists the hosted relation names and record counts across all
// shards (one consistent snapshot per shard, not across shards — fine
// for stats).
func (s *Store) Relations() map[string]int {
	out := map[string]int{}
	for i := range s.shards {
		for name, e := range s.shards[i].snap.Load().rels {
			out[name] = e.sr.Len()
		}
	}
	return out
}
