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
	"sync/atomic"
	"time"

	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/wire"
)

// Node WAL record: exactly one of the three operation kinds, tagged
// with a monotonically increasing sequence number. The snapshot
// records the last sequence it covers, so replay after a crash between
// snapshot-rename and WAL-truncation skips already-absorbed records
// instead of double-applying them (ApplyOps would refuse a replayed
// delete, and a replayed install would roll committed deltas back).
type nodeRecord struct {
	Seq     uint64
	Install *installRecord
	Remove  *removeRecord
	Commit  *commitRecord
}

// installRecord carries a full slice — the wire.Snapshot encoding the
// rest of the system already uses for relation images.
type installRecord struct {
	Relation string
	Spec     partition.Spec
	Shard    int
	Snap     []byte
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

// nodeSnapshot is the compaction image: every hosted slice (as
// wire.Snapshot bytes) plus the per-shard bookkeeping, and the WAL
// sequence it absorbs.
type nodeSnapshot struct {
	Seq  uint64
	Rels []snapRelation
}

type snapRelation struct {
	Relation string
	Spec     partition.Spec
	Shards   []snapShard
}

type snapShard struct {
	Shard         int
	InstallDigest hashx.Digest
	Deltas        uint64
	Snap          []byte
}

// relMirror is the in-memory double of one relation's durable state.
// The store maintains it on every append so snapshots never have to
// read the serving layer's tables (and so never touch its locks); the
// slice pointers are the same immutable published snapshots the
// serving store holds.
type relMirror struct {
	spec    partition.Spec
	slices  map[int]*core.SignedRelation
	install map[int]hashx.Digest
	deltas  map[int]uint64
	// runs holds, during replay only, a slice's running digests
	// (partition.SliceDigestFrom) when a replayed record hashed it whole
	// or resumed them, so the next replayed commit hashes only from the
	// first entry its ops touched. OpenNode drops them before returning.
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

// DefaultSnapshotEvery is the appends-per-snapshot compaction cadence
// when Options.SnapshotEvery is zero.
const DefaultSnapshotEvery = 64

// Options parameterizes OpenNode.
type Options struct {
	Hasher *hashx.Hasher
	// SnapshotEvery is how many WAL appends trigger a compacting
	// snapshot; 0 = DefaultSnapshotEvery, negative disables automatic
	// snapshots (Snapshot can still be called explicitly).
	SnapshotEvery int
	// Crash is the injection seam; nil (production) never fires.
	Crash *Crasher
}

// LoadReport describes what a cold start found on disk. Nothing in it
// is fatal: corruption yields refusals (empty or partial state the
// coordinator repairs), never a wrong answer — but every refusal is
// named here so operators see what the disk lost.
type LoadReport struct {
	// SnapshotSeq is the WAL sequence the loaded snapshot absorbed (0
	// when starting without one).
	SnapshotSeq uint64
	// SnapshotErr is the ErrSnapshotTorn-wrapped reason the snapshot
	// was refused, when it was; the store started from an empty image.
	SnapshotErr error
	// TornTail is the ErrWALTorn-wrapped reason the WAL tail was
	// truncated, when it was. Records before the tear replayed.
	TornTail error
	// Replayed counts WAL records applied on top of the snapshot;
	// Skipped counts records the snapshot had already absorbed.
	Replayed, Skipped int
	// Refused lists slices dropped during replay ("relation/shard:
	// reason") — decode failures or post-replay digest mismatches. The
	// serving layer re-checks everything that remains against the
	// owner's key before serving it.
	Refused []string
}

// NodeStore is a shard node's durable state: an append-only WAL of
// installs, removes and committed deltas, compacted by periodic
// snapshots. Every mutation is synced to the WAL before the caller
// hears success (append-before-acknowledge). All methods are
// goroutine-safe.
type NodeStore struct {
	dir      string
	walPath  string
	snapPath string
	h        *hashx.Hasher
	every    int
	crash    *Crasher

	mu      sync.Mutex
	f       *os.File
	seq     uint64 // last appended sequence
	snapSeq uint64 // sequence absorbed by the latest snapshot
	pending int    // WAL records not yet absorbed by a snapshot
	rels    map[string]*relMirror

	appends, snapshots, snapFailures, coldStarts atomic.Uint64
	lastSnapUnix                                 atomic.Int64
}

// OpenNode opens (creating if needed) a node store in dir and recovers
// its state: latest snapshot, plus every WAL record after it. Disk
// corruption is never fatal — a torn snapshot starts empty, a torn WAL
// tail is truncated, an inconsistent slice is dropped — and every such
// refusal lands in the LoadReport. Only environmental I/O failures
// (permissions, full disk) return an error, and a slice signed in another
// record format (core.ErrRecordFormat): the whole data dir was written by
// a build whose signatures this one cannot verify, so the open fails by
// name and writes nothing, rather than dropping every slice durably.
func OpenNode(dir string, opts Options) (*NodeStore, *LoadReport, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	h := opts.Hasher
	if h == nil {
		h = hashx.New()
	}
	every := opts.SnapshotEvery
	if every == 0 {
		every = DefaultSnapshotEvery
	}
	ns := &NodeStore{
		dir:      dir,
		walPath:  filepath.Join(dir, "node.wal"),
		snapPath: filepath.Join(dir, "node.snap"),
		h:        h,
		every:    every,
		crash:    opts.Crash,
		rels:     map[string]*relMirror{},
	}
	rep := &LoadReport{}

	// 1. Snapshot: the base image. Torn or undecodable → start empty.
	if payload, err := loadSnapshotFile(ns.snapPath); err != nil {
		if !isTorn(err) {
			return nil, nil, err
		}
		rep.SnapshotErr = err
	} else if payload != nil {
		var snap nodeSnapshot
		if derr := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); derr != nil {
			rep.SnapshotErr = fmt.Errorf("%w: undecodable payload: %v", ErrSnapshotTorn, derr)
		} else {
			ns.snapSeq = snap.Seq
			ns.seq = snap.Seq
			rep.SnapshotSeq = snap.Seq
			for _, sr := range snap.Rels {
				rm := newRelMirror(sr.Spec)
				for _, sh := range sr.Shards {
					sl, derr := decodeSlice(sh.Snap)
					if errors.Is(derr, core.ErrRecordFormat) {
						return nil, nil, fmt.Errorf("store: %s: %w", ns.snapPath, derr)
					}
					if derr != nil {
						rep.Refused = append(rep.Refused,
							fmt.Sprintf("%s/%d: snapshot slice: %v", sr.Relation, sh.Shard, derr))
						continue
					}
					rm.slices[sh.Shard] = sl
					rm.install[sh.Shard] = sh.InstallDigest
					rm.deltas[sh.Shard] = sh.Deltas
				}
				if len(rm.slices) > 0 {
					ns.rels[sr.Relation] = rm
				}
			}
		}
	}

	// 2. WAL: replay everything after the snapshot. A torn tail is
	// truncated at open so the next append lands on a record boundary.
	f, payloads, torn, err := openWAL(ns.walPath)
	if err != nil {
		return nil, nil, err
	}
	ns.f = f
	rep.TornTail = torn
	for _, payload := range payloads {
		var rec nodeRecord
		if derr := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); derr != nil {
			// CRC-valid but undecodable: version skew or silent disk
			// corruption. Refuse the record and everything after it —
			// later records may depend on this one's effect.
			rep.TornTail = fmt.Errorf("%w: undecodable record after seq %d: %v", ErrWALTorn, ns.seq, derr)
			break
		}
		if rec.Seq <= ns.snapSeq {
			rep.Skipped++
			continue
		}
		if err := ns.applyRecord(&rec, rep); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: %s: %w", ns.walPath, err)
		}
		ns.seq = rec.Seq
		ns.pending++
		rep.Replayed++
	}
	for _, rm := range ns.rels {
		rm.runs = nil
	}
	ns.coldStarts.Add(1)
	return ns, rep, nil
}

func isTorn(err error) bool {
	return errors.Is(err, ErrSnapshotTorn) || errors.Is(err, ErrWALTorn)
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
		rm.install[in.Shard], rm.runs[in.Shard] = partition.SliceDigestFrom(ns.h, sl, nil, 0)
		rm.deltas[in.Shard] = 0
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
func (ns *NodeStore) append(build func(seq uint64) *nodeRecord, apply func()) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	rec := build(ns.seq + 1)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return err
	}
	if err := appendRecord(ns.f, ns.crash, buf.Bytes()); err != nil {
		return err
	}
	ns.seq++
	ns.pending++
	ns.appends.Add(1)
	apply()
	if ns.every > 0 && ns.pending >= ns.every {
		// Compaction is best-effort: the WAL already holds everything,
		// so a failed snapshot costs replay time, never durability.
		if err := ns.snapshotLocked(); err != nil {
			ns.snapFailures.Add(1)
		}
	}
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
	return ns.append(func(seq uint64) *nodeRecord {
		return &nodeRecord{Seq: seq, Install: &installRecord{Relation: rel, Spec: spec, Shard: shard, Snap: snap}}
	}, func() {
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
	return ns.append(func(seq uint64) *nodeRecord {
		return &nodeRecord{Seq: seq, Remove: &removeRecord{Relation: rel, Shard: shard}}
	}, func() {
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
	return ns.append(func(seq uint64) *nodeRecord {
		return &nodeRecord{Seq: seq, Commit: &commitRecord{Relation: rel, Shards: recs}}
	}, func() {
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

// Snapshot forces a compacting snapshot now.
func (ns *NodeStore) Snapshot() error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.snapshotLocked()
}

func (ns *NodeStore) snapshotLocked() error {
	img := nodeSnapshot{Seq: ns.seq}
	for _, rel := range slices.Sorted(maps.Keys(ns.rels)) {
		rm := ns.rels[rel]
		sr := snapRelation{Relation: rel, Spec: rm.spec}
		for _, i := range slices.Sorted(maps.Keys(rm.slices)) {
			snap, err := encodeSlice(rm.slices[i])
			if err != nil {
				return err
			}
			sr.Shards = append(sr.Shards, snapShard{
				Shard: i, InstallDigest: rm.install[i], Deltas: rm.deltas[i], Snap: snap,
			})
		}
		img.Rels = append(img.Rels, sr)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&img); err != nil {
		return err
	}
	if err := writeSnapshotFile(ns.snapPath, ns.crash, buf.Bytes()); err != nil {
		return err
	}
	// The snapshot is durable under its real name: the WAL records it
	// absorbed are dead weight. A crash inside this truncation replays
	// them against the snapshot's sequence and skips every one.
	if err := ns.f.Truncate(0); err != nil {
		return err
	}
	if _, err := ns.f.Seek(0, 0); err != nil {
		return err
	}
	if err := ns.f.Sync(); err != nil {
		return err
	}
	ns.snapSeq = ns.seq
	ns.pending = 0
	ns.snapshots.Add(1)
	ns.lastSnapUnix.Store(time.Now().Unix())
	return nil
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
	// compactions; SnapshotFailures counts best-effort compactions
	// that failed (durability unaffected — the WAL retains the tail).
	WALAppends, Snapshots, SnapshotFailures uint64
	// ColdStarts counts recoveries from disk (1 per process).
	ColdStarts uint64
	// LastSnapshotUnix is the wall time of the last successful
	// snapshot (0 before the first in this process).
	LastSnapshotUnix int64
	// Seq is the last appended WAL sequence; SnapshotSeq is the last
	// sequence a snapshot absorbed; Pending is the replay depth a
	// crash right now would pay.
	Seq, SnapshotSeq uint64
	Pending          int
}

// Stats snapshots the counters.
func (ns *NodeStore) Stats() NodeStats {
	ns.mu.Lock()
	seq, snapSeq, pending := ns.seq, ns.snapSeq, ns.pending
	ns.mu.Unlock()
	return NodeStats{
		WALAppends:       ns.appends.Load(),
		Snapshots:        ns.snapshots.Load(),
		SnapshotFailures: ns.snapFailures.Load(),
		ColdStarts:       ns.coldStarts.Load(),
		LastSnapshotUnix: ns.lastSnapUnix.Load(),
		Seq:              seq,
		SnapshotSeq:      snapSeq,
		Pending:          pending,
	}
}

// Dir returns the store's directory.
func (ns *NodeStore) Dir() string { return ns.dir }

// Close releases the WAL file handle. No flush is needed: every append
// synced before acknowledging.
func (ns *NodeStore) Close() error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.f == nil {
		return nil
	}
	err := ns.f.Close()
	ns.f = nil
	return err
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
