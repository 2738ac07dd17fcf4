package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/wire"
)

// Node WAL record: exactly one of the three operation kinds.
type nodeRecord struct {
	Install *installRecord
	Remove  *removeRecord
	Commit  *commitRecord
}

// installRecord is the slice record: a full slice — the wire.Snapshot
// encoding the rest of the system already uses for relation images —
// with its spec, its digest at install time and the deltas committed to
// it since. An install logs one with Deltas 0; a compaction rewrites the
// log as one per hosted shard (NodeStore.image).
type installRecord struct {
	Relation      string
	Spec          partition.Spec
	Shard         int
	InstallDigest hashx.Digest
	Deltas        uint64
	Snap          []byte
}

type removeRecord struct {
	Relation string
	Shard    int
}

// commitShardRecord is one shard's share of a committed distributed
// delta: the identity-keyed ops that transform the previously durable
// slice into the committed one, and the digest the result must hash
// to. FullSnap is the self-healing fallback: if at log time the ops
// replay does not reproduce PostDigest on a clone (the store's mirror
// drifted from the serving state, e.g. after an injected crash the
// process survived), the record carries the full slice instead —
// correctness never rests on the diff round-tripping.
type commitShardRecord struct {
	Shard      int
	Ops        []delta.Op
	PostDigest hashx.Digest
	FullSnap   []byte
}

type commitRecord struct {
	Relation string
	Shards   []commitShardRecord
}

// relMirror is the in-memory double of one relation's durable state.
// The store maintains it on every append so compaction never has to
// read the serving layer's tables (and so never touch its locks); the
// slice pointers are the same immutable published snapshots the
// serving store holds.
type relMirror struct {
	spec    partition.Spec
	slices  map[int]*core.SignedRelation
	install map[int]hashx.Digest
	deltas  map[int]uint64
	// runs holds, during replay only, a slice's running digests
	// (partition.SliceDigestFrom) once a replayed commit hashed it, so the
	// next replayed commit hashes only from the first entry its ops
	// touched; a slice record leaves none, and the first commit after it
	// hashes whole. OpenNode drops them before returning.
	runs map[int][]byte
}

func newRelMirror(spec partition.Spec) *relMirror {
	return &relMirror{
		spec:    spec,
		slices:  map[int]*core.SignedRelation{},
		install: map[int]hashx.Digest{},
		deltas:  map[int]uint64{},
		runs:    map[int][]byte{},
	}
}

// drop forgets one shard's slice and bookkeeping.
func (rm *relMirror) drop(shard int) {
	delete(rm.slices, shard)
	delete(rm.install, shard)
	delete(rm.deltas, shard)
	delete(rm.runs, shard)
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
	dir string
	h   *hashx.Hasher

	mu   sync.Mutex
	log  *wal
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
// (permissions, full disk) return an error, and so do three data dirs
// this build must not replay: a log damaged other than by a tear
// (ErrWALCorrupt), whose later records were acknowledged; a node.snap
// beside the log (ErrLegacySnapshot); and a slice signed in another
// record format (core.ErrRecordFormat) — the whole data dir was written
// by a build whose signatures this one cannot verify. Each open fails by
// name and writes nothing, rather than dropping records durably.
func OpenNode(dir string, opts Options) (*NodeStore, *LoadReport, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
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
	path := filepath.Join(dir, "node.wal")
	img, err := readLog(path)
	if err != nil {
		return nil, nil, err
	}
	ns := &NodeStore{dir: dir, h: h, rels: map[string]*relMirror{}}
	rep := &LoadReport{TornTail: img.torn}
	for i, r := range img.recs {
		var rec nodeRecord
		if derr := gob.NewDecoder(bytes.NewReader(r.payload)).Decode(&rec); derr != nil {
			// CRC-valid but undecodable: version skew or silent disk
			// corruption. Records after it were acknowledged, and may
			// depend on its effect, so the open fails rather than drop
			// them.
			return nil, nil, fmt.Errorf("store: %s: %w", path, r.corrupt(i, derr))
		}
		if err := ns.applyRecord(&rec, rep); err != nil {
			return nil, nil, fmt.Errorf("store: %s: %w", path, err)
		}
		rep.Replayed++
	}
	if ns.log, err = img.open(every, opts.Crash); err != nil {
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
func (ns *NodeStore) applyRecord(rec *nodeRecord, rep *LoadReport) error {
	switch {
	case rec.Install != nil:
		in := rec.Install
		sl, err := decodeSlice(in.Snap)
		if errors.Is(err, core.ErrRecordFormat) {
			return err
		}
		if err != nil {
			rep.Refused = append(rep.Refused, fmt.Sprintf("%s/%d: install replay: %v", in.Relation, in.Shard, err))
			return nil
		}
		rm := ns.rels[in.Relation]
		if rm == nil {
			rm = newRelMirror(in.Spec)
			ns.rels[in.Relation] = rm
		} else if in.Spec.Version >= rm.spec.Version {
			rm.spec = in.Spec
		}
		rm.slices[in.Shard] = sl
		rm.install[in.Shard] = in.InstallDigest
		rm.deltas[in.Shard] = in.Deltas
		delete(rm.runs, in.Shard)
		if len(in.InstallDigest) == 0 {
			// An install logged by a build that did not record its digest.
			rm.install[in.Shard], rm.runs[in.Shard] = partition.SliceDigestFrom(ns.h, sl, nil, 0)
		}
	case rec.Remove != nil:
		rm := ns.rels[rec.Remove.Relation]
		if rm == nil {
			return nil
		}
		rm.drop(rec.Remove.Shard)
		if len(rm.slices) == 0 {
			delete(ns.rels, rec.Remove.Relation)
		}
	case rec.Commit != nil:
		cr := rec.Commit
		rm := ns.rels[cr.Relation]
		for _, cs := range cr.Shards {
			refuse := func(why string) {
				rep.Refused = append(rep.Refused, fmt.Sprintf("%s/%d: commit replay: %s", cr.Relation, cs.Shard, why))
				if rm != nil {
					rm.drop(cs.Shard)
				}
			}
			if rm == nil || rm.slices[cs.Shard] == nil {
				refuse("commit for a slice the log never installed")
				continue
			}
			// The digest resumes at the first entry the ops touched (ApplyOps
			// reports every index whose entry or neighbour changed, and
			// leaves every entry before the lowest as it was); a full-slice
			// record is hashed whole.
			var next *core.SignedRelation
			from := 0
			if len(cs.FullSnap) > 0 {
				sl, err := decodeSlice(cs.FullSnap)
				if errors.Is(err, core.ErrRecordFormat) {
					return err
				}
				if err != nil {
					refuse(fmt.Sprintf("full-slice fallback: %v", err))
					continue
				}
				next = sl
			} else {
				sl := rm.slices[cs.Shard].Clone()
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
			rm.slices[cs.Shard] = next
			rm.runs[cs.Shard] = run
			rm.deltas[cs.Shard]++
		}
		if rm != nil && len(rm.slices) == 0 {
			delete(ns.rels, cr.Relation)
		}
	}
	return nil
}

// append encodes and durably appends one record, then updates the
// mirror via apply and possibly compacts. apply runs only after the
// record is synced — the mirror never gets ahead of the disk.
func (ns *NodeStore) append(rec *nodeRecord, apply func()) error {
	payload, err := gobRecord(rec)
	if err != nil {
		return err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if err := ns.log.append(payload); err != nil {
		return err
	}
	apply()
	ns.log.compactIfDue(ns.image)
	return nil
}

// LogInstall durably records hosting a slice. Call before publishing
// or acknowledging the install; an error means the install must be
// refused. digest is the slice digest at install time.
func (ns *NodeStore) LogInstall(rel string, spec partition.Spec, shard int, sl *core.SignedRelation, digest hashx.Digest) error {
	snap, err := encodeSlice(sl)
	if err != nil {
		return err
	}
	return ns.append(&nodeRecord{Install: &installRecord{
		Relation: rel, Spec: spec, Shard: shard, InstallDigest: digest, Snap: snap,
	}}, func() {
		rm := ns.rels[rel]
		if rm == nil {
			rm = newRelMirror(spec)
			ns.rels[rel] = rm
		} else if spec.Version >= rm.spec.Version {
			rm.spec = spec
		}
		rm.slices[shard] = sl
		rm.install[shard] = digest
		rm.deltas[shard] = 0
	})
}

// LogRemove durably records dropping a slice.
func (ns *NodeStore) LogRemove(rel string, shard int) error {
	return ns.append(&nodeRecord{Remove: &removeRecord{Relation: rel, Shard: shard}}, func() {
		if rm := ns.rels[rel]; rm != nil {
			rm.drop(shard)
			if len(rm.slices) == 0 {
				delete(ns.rels, rel)
			}
		}
	})
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
	rec commitShardRecord
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
func PlanShard(cs CommitShard) (PlannedShard, error) {
	rec := commitShardRecord{Shard: cs.Shard, PostDigest: cs.PostDigest}
	if cs.Old != nil {
		if d := delta.Diff(cs.Old, cs.New); delta.Reproduces(cs.Old, d, cs.New) {
			rec.Ops = d.Ops
			return PlannedShard{New: cs.New, rec: rec}, nil
		}
	}
	snap, err := encodeSlice(cs.New)
	if err != nil {
		return PlannedShard{}, err
	}
	rec.FullSnap = snap
	return PlannedShard{New: cs.New, rec: rec}, nil
}

// AppendCommit durably records a committed distributed delta from its
// per-shard plans (PlanShard), in one WAL record: the append half of
// LogCommit. Call before publishing; an error means the commit must be
// refused.
func (ns *NodeStore) AppendCommit(rel string, shards []PlannedShard) error {
	recs := make([]commitShardRecord, len(shards))
	for i := range shards {
		recs[i] = shards[i].rec
	}
	return ns.append(&nodeRecord{Commit: &commitRecord{Relation: rel, Shards: recs}}, func() {
		rm := ns.rels[rel]
		if rm == nil {
			return
		}
		for _, ps := range shards {
			if rm.slices[ps.rec.Shard] != nil {
				rm.slices[ps.rec.Shard] = ps.New
				rm.deltas[ps.rec.Shard]++
			}
		}
	})
}

// LogCommit durably records a committed distributed delta as per-shard
// identity-keyed ops: PlanShard for every shard, then one AppendCommit.
// Call before publishing; an error means the commit must be refused.
func (ns *NodeStore) LogCommit(rel string, shards []CommitShard) error {
	planned := make([]PlannedShard, 0, len(shards))
	for _, cs := range shards {
		ps, err := PlanShard(cs)
		if err != nil {
			return err
		}
		planned = append(planned, ps)
	}
	return ns.AppendCommit(rel, planned)
}

// Snapshot compacts the log now: it rewrites node.wal as one slice
// record per hosted shard.
func (ns *NodeStore) Snapshot() error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.log.rewrite(ns.image)
}

// image is the compacted log: one slice record per hosted shard, with
// the shard's spec, install digest and delta count, in relation and
// shard order.
func (ns *NodeStore) image() ([][]byte, error) {
	var out [][]byte
	for _, rel := range slices.Sorted(maps.Keys(ns.rels)) {
		rm := ns.rels[rel]
		for _, i := range slices.Sorted(maps.Keys(rm.slices)) {
			snap, err := encodeSlice(rm.slices[i])
			if err != nil {
				return nil, err
			}
			p, err := gobRecord(&nodeRecord{Install: &installRecord{
				Relation: rel, Spec: rm.spec, Shard: i,
				InstallDigest: rm.install[i], Deltas: rm.deltas[i], Snap: snap,
			}})
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
		for _, i := range slices.Sorted(maps.Keys(rm.slices)) {
			rr.Shards = append(rr.Shards, RecoveredShard{
				Shard: i, Slice: rm.slices[i],
				InstallDigest: rm.install[i], Deltas: rm.deltas[i],
			})
		}
		out[rel] = rr
	}
	return out
}

// Drop removes a slice from the store's mirror and logs the removal —
// the serving layer calls it when a recovered slice fails its crypto
// self-check, so the refusal is durable too.
func (ns *NodeStore) Drop(rel string, shard int) error {
	return ns.LogRemove(rel, shard)
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

// Close releases the log's file handle.
func (ns *NodeStore) Close() error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.log.close()
}

// gobRecord encodes one log record.
func gobRecord(rec any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(rec)
	return buf.Bytes(), err
}

// encodeSlice serializes one slice in the wire.Snapshot format the
// rest of the system uses for relation images.
func encodeSlice(sl *core.SignedRelation) ([]byte, error) {
	return wire.EncodeSnapshot(&wire.Snapshot{Relation: sl})
}

func decodeSlice(b []byte) (*core.SignedRelation, error) {
	snap, err := wire.DecodeSnapshot(b)
	if err != nil {
		return nil, err
	}
	if snap.Relation == nil {
		return nil, fmt.Errorf("store: slice snapshot holds no relation")
	}
	return snap.Relation, nil
}
