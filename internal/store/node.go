package store

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/wire"
)

// nodeMagic names a node's log in its header (wire.FileHeader).
const nodeMagic = "vcqr node log\n"

// relMirror is the in-memory double of one relation's durable state:
// its latest spec, and per hosted shard the slice record a compaction
// writes. The store maintains it on every append so compaction never has
// to read the serving layer's tables (and so never touch its locks); the
// slices are the same immutable published snapshots the serving store
// holds, and a record is replaced, never written, when its shard moves
// on.
type relMirror struct {
	spec   partition.Spec
	shards map[int]*wire.SliceRecord
	// runs holds, during replay only, a slice's running digests
	// (partition.SliceDigestFrom) once a replayed commit hashed it, so the
	// next replayed commit hashes only from the first entry its ops
	// touched; a slice record leaves none, and the first commit after it
	// hashes whole. OpenNode drops them before returning.
	runs map[int][]byte
}

// drop forgets one shard's slice and bookkeeping, and the relation with
// its last shard.
func (ns *NodeStore) drop(rel string, shard int) {
	if rm := ns.rels[rel]; rm != nil {
		delete(rm.shards, shard)
		delete(rm.runs, shard)
		if len(rm.shards) == 0 {
			delete(ns.rels, rel)
		}
	}
}

// host adopts a slice record: an install, or a compacted log's slice.
func (ns *NodeStore) host(in *wire.SliceRecord) {
	spec := in.Manifest.Spec
	rm := ns.rels[spec.Relation]
	if rm == nil {
		rm = &relMirror{spec: spec, shards: map[int]*wire.SliceRecord{}, runs: map[int][]byte{}}
		ns.rels[spec.Relation] = rm
	} else if spec.Version >= rm.spec.Version {
		rm.spec = spec
	}
	rm.shards[in.Manifest.Shard] = in
	delete(rm.runs, in.Manifest.Shard)
}

// advance replaces a shard's record with one for its next slice, one
// more delta in.
func (rm *relMirror) advance(shard int, next *core.SignedRelation) {
	sh := *rm.shards[shard]
	sh.Slice = next
	sh.Manifest.Deltas++
	rm.shards[shard] = &sh
}

// DefaultSnapshotEvery is the appends-per-compaction cadence when
// Options.SnapshotEvery is zero.
const DefaultSnapshotEvery = 64

// Options parameterizes OpenNode.
type Options struct {
	Hasher *hashx.Hasher
	// SnapshotEvery is how many WAL appends trigger a compacting
	// rewrite of the log; 0 = DefaultSnapshotEvery, negative disables
	// automatic compaction (Snapshot can still be called explicitly).
	SnapshotEvery int
	// Crash is the injection seam; nil (production) never fires.
	Crash *Crasher
}

// LoadReport describes what a cold start found on disk. Nothing in it
// is fatal: a tear or an inconsistent slice yields refusals (empty or
// partial state the coordinator repairs), never a wrong answer — but
// every refusal is named here so operators see what the disk lost.
type LoadReport struct {
	// TornTail is the ErrWALTorn-wrapped reason the WAL tail was
	// truncated, when it was: a crash mid-append, whose record was never
	// acknowledged. Records before the tear replayed.
	TornTail error
	// Replayed counts WAL records applied: a compacted log's slice
	// records, then whatever was appended after them.
	Replayed int
	// Refused lists slices dropped during replay ("relation/shard:
	// reason") — decode failures or post-replay digest mismatches. The
	// serving layer re-checks everything that remains against the
	// owner's key before serving it.
	Refused []string
}

// NodeStore is a shard node's durable state: one append-only log
// (node.wal) of installs, removes and committed deltas, compacted by
// rewriting it as one slice record per hosted shard. Every mutation is
// synced to the log before the caller hears success
// (append-before-acknowledge). All methods are goroutine-safe.
type NodeStore struct {
	logged
	dir  string
	h    *hashx.Hasher
	rels map[string]*relMirror
}

// ErrLegacySnapshot refuses a data dir holding a node.snap: the
// compaction image of builds that kept one beside the WAL (and truncated
// the WAL under it). This build never reads that file, so replaying the
// WAL alone would silently lose every slice the image held; the open
// fails by name and writes nothing instead. Empty the data dir and let
// the coordinator re-install the node's slices.
var ErrLegacySnapshot = errors.New("store: data dir holds a node.snap from an older build")

// OpenNode opens (creating if needed) a node store in dir and recovers
// its state by replaying node.wal. A crash's damage is never fatal — a
// torn tail is truncated, an inconsistent slice is dropped — and every
// such refusal lands in the LoadReport. Environmental I/O failures
// (permissions, full disk) return an error, and so do four data dirs
// this build must not replay: a log damaged other than by a tear
// (ErrWALCorrupt), whose later records were acknowledged; a log without
// this build's header (wire.ErrFileFormat: every earlier build's log,
// whose records were gob); a node.snap beside the log
// (ErrLegacySnapshot); and a slice signed in another record format
// (core.ErrRecordFormat) — the whole data dir was written by a build
// whose signatures this one cannot verify. Each open fails by name and
// writes nothing, rather than dropping records durably.
func OpenNode(dir string, opts Options) (*NodeStore, *LoadReport, error) {
	h := opts.Hasher
	if h == nil {
		h = hashx.New()
	}
	if _, err := os.Stat(filepath.Join(dir, "node.snap")); err == nil {
		return nil, nil, fmt.Errorf("%w: %s", ErrLegacySnapshot, dir)
	}
	every := opts.SnapshotEvery
	if every == 0 {
		every = DefaultSnapshotEvery
	}
	ns := &NodeStore{dir: dir, h: h, rels: map[string]*relMirror{}}
	ns.compacted = ns.image
	rep := &LoadReport{}
	// Each record decodes from a copy, so what its slices alias is the
	// record alone, not the whole log image.
	var err error
	ns.log, rep.Replayed, rep.TornTail, err = replay(dir, "node.wal", nodeMagic, every, opts.Crash,
		func(p []byte) (*wire.NodeRecord, error) { return wire.DecodeNodeRecord(bytes.Clone(p)) },
		func(rec *wire.NodeRecord) error { return ns.applyRecord(rec, rep) })
	if err != nil {
		return nil, nil, err
	}
	for _, rm := range ns.rels {
		rm.runs = nil
	}
	return ns, rep, nil
}

// applyRecord folds one replayed WAL record into the mirror. Failures
// refuse the affected slice (dropping it) rather than guessing; the one
// error returned is a slice of another record format, which fails the
// open (OpenNode).
func (ns *NodeStore) applyRecord(rec *wire.NodeRecord, rep *LoadReport) error {
	switch {
	case rec.Slice != nil:
		if err := rec.Slice.Slice.Params.CheckFormat(); err != nil {
			return err
		}
		ns.host(rec.Slice)
	case rec.Remove != nil:
		ns.drop(rec.Remove.Relation, rec.Remove.Shard)
	case rec.Commit != nil:
		cr := rec.Commit
		rm := ns.rels[cr.Relation]
		for _, cs := range cr.Shards {
			refuse := func(why string) {
				rep.Refused = append(rep.Refused, fmt.Sprintf("%s/%d: commit replay: %s", cr.Relation, cs.Shard, why))
				ns.drop(cr.Relation, cs.Shard)
			}
			if rm == nil || rm.shards[cs.Shard] == nil {
				refuse("commit for a slice the log never installed")
				continue
			}
			// The digest resumes at the first entry the ops touched (ApplyOps
			// reports every index whose entry or neighbour changed, and
			// leaves every entry before the lowest as it was); a full-slice
			// record is hashed whole.
			next, from := cs.Full, 0
			if next != nil {
				if err := next.Params.CheckFormat(); err != nil {
					return err
				}
			} else {
				sl := rm.shards[cs.Shard].Slice.Clone()
				touched, err := delta.ApplyOps(sl, delta.Delta{Relation: cr.Relation, Ops: cs.Ops})
				if err != nil {
					refuse(fmt.Sprintf("ops replay: %v", err))
					continue
				}
				next, from = sl, len(sl.Recs)
				if len(touched) > 0 {
					from = touched[0]
				}
			}
			dg, run := partition.SliceDigestFrom(ns.h, next, rm.runs[cs.Shard], from)
			if !dg.Equal(cs.PostDigest) {
				refuse("post-delta digest mismatch")
				continue
			}
			rm.advance(cs.Shard, next)
			rm.runs[cs.Shard] = run
		}
	}
	return nil
}

// append encodes and durably appends one record, then updates the
// mirror via apply and possibly compacts. apply runs only after the
// record is synced — the mirror never gets ahead of the disk.
func (ns *NodeStore) append(rec *wire.NodeRecord, apply func()) error {
	payload, err := wire.AppendNodeRecord(nil, rec)
	if err != nil {
		return err
	}
	return ns.commit(payload, apply)
}

// LogInstall durably records hosting a slice of spec, whose relation rel
// must name. Call before publishing or acknowledging the install; an
// error means the install must be refused. digest is the slice digest
// at install time.
func (ns *NodeStore) LogInstall(rel string, spec partition.Spec, shard int, sl *core.SignedRelation, digest hashx.Digest) error {
	if rel != spec.Relation {
		return fmt.Errorf("store: install of %q under the spec of %q", rel, spec.Relation)
	}
	in := &wire.SliceRecord{Manifest: wire.ShardManifest{Spec: spec, Shard: shard}, InstallDigest: digest, Slice: sl}
	return ns.append(&wire.NodeRecord{Slice: in}, func() { ns.host(in) })
}

// LogRemove durably records dropping a slice — also the serving
// layer's durable refusal of a recovered slice that fails its crypto
// self-check.
func (ns *NodeStore) LogRemove(rel string, shard int) error {
	return ns.append(&wire.NodeRecord{Remove: &wire.ShardRef{Relation: rel, Shard: shard}}, func() { ns.drop(rel, shard) })
}

// CommitShard is one shard's transition in a committed delta: the
// previously published slice, the staged successor, and the
// successor's digest (computed by the caller, reused for serving).
type CommitShard struct {
	Shard      int
	Old, New   *core.SignedRelation
	PostDigest hashx.Digest
}

// PlannedShard is one shard's commit record as PlanShard built it, ready
// for AppendCommit: the staged slice the record transforms the old one
// into, and the record itself (ops or the full slice, and PostDigest).
type PlannedShard struct {
	New *core.SignedRelation
	rec wire.ShardCommit
}

// PlanShard builds one shard's commit record, touching no store state:
// the plan half of LogCommit, which a caller may run ahead of the append
// and off its own locks. The identity-keyed ops (delta.Diff: one walk of
// the two slices) are proven to reproduce the staged slice before they
// are trusted to the log (delta.Reproduces: applied to a copy of the
// window of Old they reach, and the result compared with New entry by
// entry over every field PostDigest hashes), so the slice is neither
// copied nor hashed a second time. A shard whose diff does not
// round-trip (an Old out of identity order, say), or that has no Old, is
// planned as a full slice instead. Replay checks PostDigest either way.
// Old and New must not change until the plan is appended or dropped.
func PlanShard(cs CommitShard) PlannedShard {
	ps := PlannedShard{New: cs.New, rec: wire.ShardCommit{Shard: cs.Shard, PostDigest: cs.PostDigest, Full: cs.New}}
	if cs.Old != nil {
		if d := delta.Diff(cs.Old, cs.New); delta.Reproduces(cs.Old, d, cs.New) {
			ps.rec.Ops, ps.rec.Full = d.Ops, nil
		}
	}
	return ps
}

// AppendCommit durably records a committed distributed delta from its
// per-shard plans (PlanShard), in one WAL record: the append half of
// LogCommit. Call before publishing; an error means the commit must be
// refused.
func (ns *NodeStore) AppendCommit(rel string, shards []PlannedShard) error {
	recs := make([]wire.ShardCommit, len(shards))
	for i := range shards {
		recs[i] = shards[i].rec
	}
	return ns.append(&wire.NodeRecord{Commit: &wire.CommitRecord{Relation: rel, Shards: recs}}, func() {
		rm := ns.rels[rel]
		if rm == nil {
			return
		}
		for _, ps := range shards {
			if rm.shards[ps.rec.Shard] != nil {
				rm.advance(ps.rec.Shard, ps.New)
			}
		}
	})
}

// LogCommit durably records a committed distributed delta as per-shard
// identity-keyed ops: PlanShard for every shard, then one AppendCommit.
// Call before publishing; an error means the commit must be refused.
func (ns *NodeStore) LogCommit(rel string, shards []CommitShard) error {
	planned := make([]PlannedShard, len(shards))
	for i, cs := range shards {
		planned[i] = PlanShard(cs)
	}
	return ns.AppendCommit(rel, planned)
}

// Snapshot compacts the log now: it rewrites node.wal as one slice
// record per hosted shard.
func (ns *NodeStore) Snapshot() error { return ns.compact() }

// image is the compacted log: one slice record per hosted shard, with
// the shard's spec, install digest and delta count, in relation and
// shard order.
func (ns *NodeStore) image() ([][]byte, error) {
	var out [][]byte
	for _, rel := range slices.Sorted(maps.Keys(ns.rels)) {
		rm := ns.rels[rel]
		for _, i := range slices.Sorted(maps.Keys(rm.shards)) {
			in := *rm.shards[i]
			in.Manifest.Spec = rm.spec
			p, err := wire.AppendNodeRecord(nil, &wire.NodeRecord{Slice: &in})
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// RecoveredShard is one slice as recovered from disk, for the serving
// layer to self-check and publish.
type RecoveredShard struct {
	Shard         int
	Slice         *core.SignedRelation
	InstallDigest hashx.Digest
	Deltas        uint64
}

// RecoveredRelation is one relation's recovered hosting state.
type RecoveredRelation struct {
	Spec   partition.Spec
	Shards []RecoveredShard
}

// Recovered snapshots the store's current state — after OpenNode, the
// cold-start image the serving layer verifies against the owner's key
// before publishing any of it.
func (ns *NodeStore) Recovered() map[string]RecoveredRelation {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	out := make(map[string]RecoveredRelation, len(ns.rels))
	for _, rel := range slices.Sorted(maps.Keys(ns.rels)) {
		rm := ns.rels[rel]
		rr := RecoveredRelation{Spec: rm.spec}
		for _, i := range slices.Sorted(maps.Keys(rm.shards)) {
			sh := rm.shards[i]
			rr.Shards = append(rr.Shards, RecoveredShard{Shard: i, Slice: sh.Slice,
				InstallDigest: sh.InstallDigest, Deltas: sh.Manifest.Deltas})
		}
		out[rel] = rr
	}
	return out
}

// NodeStats is the store's /statsz and /metrics view.
type NodeStats struct {
	// WALAppends counts durable record appends; Snapshots counts
	// compactions (log rewrites); SnapshotFailures counts best-effort
	// compactions that failed (durability unaffected — the log retains
	// every record).
	WALAppends, Snapshots, SnapshotFailures uint64
	// ColdStarts counts recoveries from disk: 1, since every NodeStore
	// is one (OpenNode).
	ColdStarts uint64
	// LastSnapshotUnix is the wall time of the last successful
	// compaction (0 before the first in this process).
	LastSnapshotUnix int64
	// Pending counts records appended since the last compaction (at
	// open, every record replayed): SnapshotEvery of them trigger the
	// next one.
	Pending int
}

// Stats snapshots the counters.
func (ns *NodeStore) Stats() NodeStats {
	ns.mu.Lock()
	pending := ns.log.pending
	ns.mu.Unlock()
	return NodeStats{
		WALAppends:       ns.log.appends.Load(),
		Snapshots:        ns.log.rewrites.Load(),
		SnapshotFailures: ns.log.rewriteFailures.Load(),
		ColdStarts:       1,
		LastSnapshotUnix: ns.log.lastRewriteUnix.Load(),
		Pending:          pending,
	}
}

// Dir returns the store's directory.
func (ns *NodeStore) Dir() string { return ns.dir }
