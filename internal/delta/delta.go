package delta

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
)

// OpKind distinguishes the two record-level operations.
type OpKind byte

// Operation kinds.
const (
	OpUpsert OpKind = 1
	OpDelete OpKind = 2
)

// Op is one record-level change. Upserts carry the full signed record
// (tuple, digest material, new signature); deletes carry only the
// identity. Neighbour re-signs show up as upserts of otherwise-unchanged
// records with fresh signatures.
type Op struct {
	Kind       OpKind
	Key, RowID uint64
	Rec        core.SignedRecord // meaningful for OpUpsert
}

// Delta is an ordered batch of changes for one relation.
type Delta struct {
	Relation string
	Ops      []Op
}

// Errors.
var (
	ErrRelationName = errors.New("delta: relation name mismatch")
	ErrBadOp        = errors.New("delta: malformed operation")
	ErrValidation   = errors.New("delta: post-apply validation failed")
	// ErrEmpty refuses a batch without operations on a partitioned
	// relation: there is no shard to route it to, so it can neither be
	// applied nor counted as applied.
	ErrEmpty = errors.New("delta: empty delta")
)

// Route splits a partitioned relation's batch into per-shard
// sub-batches, preserving op order within each shard: delimiter re-signs
// go to the edge shards that hold the delimiters, every other op to the
// shard owning its key. It is the one routing rule every tier that
// stages partitioned deltas shares (the in-process server, a shard node,
// the cluster coordinator), so an op lands on the same shard — and an
// empty batch or an out-of-domain key is refused — wherever it enters.
func Route(spec partition.Spec, d Delta) (map[int][]Op, error) {
	if len(d.Ops) == 0 {
		return nil, ErrEmpty
	}
	groups := map[int][]Op{}
	for _, op := range d.Ops {
		var shard int
		switch {
		case op.Kind == OpUpsert && op.Rec.Kind == core.KindDelimLeft:
			shard = 0
		case op.Kind == OpUpsert && op.Rec.Kind == core.KindDelimRight:
			shard = spec.K() - 1
		default:
			var err error
			if shard, err = spec.ShardFor(op.Key); err != nil {
				return nil, err
			}
		}
		groups[shard] = append(groups[shard], op)
	}
	return groups, nil
}

// Diff computes the Ops that transform old into new: upserts for added
// records and for records whose signature or digest material changed,
// deletes for removed records. Both snapshots must be forms of the same
// relation. Delimiter re-signs are included (they border edge updates).
//
// Precondition: both record sequences are in identity order — key, then
// row id, then entry kind — the order Validate and CheckEntries enforce
// at ingest and ApplyOps keeps. Diff walks the two sequences once, side
// by side, with no index: an entry Clone left shared with the published
// epoch is equal by pointer, without a field compared, so a diff costs
// one pass of pointer compares plus the changed entries.
// Input out of order may yield ops that do not reproduce new; callers that
// log ops prove the round trip first (store.NodeStore.LogCommit).
//
// Ops come upserts first, then deletes, each in identity order. Upserts
// go first so that a shard slice whose context record changes identity
// (a neighbour shard inserted or deleted its edge record) can re-seat
// it: the new context is inserted beside the old one, then the old one
// is deleted. Deletes first would leave ApplyOps no slot for it.
func Diff(old, new *core.SignedRelation) Delta {
	d := Delta{Relation: new.Schema.Name}
	var dels []Op
	i, j := 0, 0
	for i < len(old.Recs) || j < len(new.Recs) {
		var c int
		switch {
		case i == len(old.Recs):
			c = 1
		case j == len(new.Recs):
			c = -1
		default:
			c = compareIdentity(old.Recs[i], new.Recs[j])
		}
		switch {
		case c < 0: // only in old
			if rec := old.Recs[i]; rec.Kind == core.KindRecord {
				dels = append(dels, Op{Kind: OpDelete, Key: rec.Key(), RowID: rec.Tuple.RowID})
			}
			i++
		case c > 0: // only in new
			d.Ops = append(d.Ops, upsert(new.Recs[j]))
			j++
		default:
			prev, rec := old.Recs[i], new.Recs[j]
			if prev != rec && (!bytes.Equal(prev.Sig, rec.Sig) || !prev.G.Equal(rec.G)) {
				d.Ops = append(d.Ops, upsert(rec))
			}
			i++
			j++
		}
	}
	d.Ops = append(d.Ops, dels...)
	return d
}

// compareIdentity orders two entries by key, row id and kind — the
// identity order of a record sequence.
func compareIdentity(a, b *core.SignedRecord) int {
	return compareTo(a, b.Tuple.Key, b.Tuple.RowID, b.Kind)
}

// compareTo orders entry a against the identity (key, rowID, kind). It
// reads the key field in place: the value-receiver Key() would copy the
// whole record at every comparison.
func compareTo(a *core.SignedRecord, key, rowID uint64, kind core.Kind) int {
	if c := cmp.Compare(a.Tuple.Key, key); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Tuple.RowID, rowID); c != 0 {
		return c
	}
	return cmp.Compare(a.Kind, kind)
}

// search locates the identity (key, rowID, kind) in a record sequence:
// its index and true when an entry has it, else the index an entry with
// it would be inserted at and false.
type search func(recs []*core.SignedRecord, key, rowID uint64, kind core.Kind) (int, bool)

// find is ApplyOps' search: one binary search in identity order, the
// order every sequence it is handed is in and every op it applies keeps
// (an upsert replaces an entry of the same identity or inserts at the
// search's position; a delete removes one). The position is not clamped
// inside the edge entries: a context record re-seated at a shard's edge
// (a neighbour inserted or deleted its edge record) sorts before the old
// left context or after the old right one, and inserting it anywhere
// else would leave the sequence out of order for the ops that follow.
func find(recs []*core.SignedRecord, key, rowID uint64, kind core.Kind) (int, bool) {
	i := sort.Search(len(recs), func(i int) bool { return compareTo(recs[i], key, rowID, kind) >= 0 })
	return i, i < len(recs) && compareTo(recs[i], key, rowID, kind) == 0
}

// Reproduces reports whether ApplyOps on a copy of old succeeds and
// leaves a sequence equal to new entry by entry over the fields
// SliceDigest hashes (partition.SameRecord) — LogCommit's round trip —
// copying only the window of old the ops can reach instead of all of it,
// and an entry new shares with old by reference is equal by pointer.
// old must be in strict identity order, which is checked first (false
// otherwise). Then every op's binary search lands inside [lo, hi), the
// entries whose identities lie between the lowest and the highest op
// identity, in the whole sequence exactly as in the window alone, and
// the entries before lo and from hi on keep their contents in place:
// ApplyOps(old) is old[:lo] ++ ApplyOps(old[lo:hi]) ++ old[hi:].
func Reproduces(old *core.SignedRelation, d Delta, new *core.SignedRelation) bool {
	for i := 1; i < len(old.Recs); i++ {
		if compareIdentity(old.Recs[i-1], old.Recs[i]) >= 0 {
			return false
		}
	}
	if len(d.Ops) == 0 {
		return d.Relation == old.Schema.Name && partition.SameSlice(old, new)
	}
	first, last := d.Ops[0].identity(), d.Ops[0].identity()
	for _, op := range d.Ops[1:] {
		id := op.identity()
		if compareIdentity(&id, &first) < 0 {
			first = id
		}
		if compareIdentity(&id, &last) > 0 {
			last = id
		}
	}
	lo := sort.Search(len(old.Recs), func(i int) bool { return compareIdentity(old.Recs[i], &first) >= 0 })
	hi := sort.Search(len(old.Recs), func(i int) bool { return compareIdentity(old.Recs[i], &last) > 0 })
	win := &core.SignedRelation{Params: old.Params, Schema: old.Schema, Recs: slices.Clone(old.Recs[lo:hi])}
	if _, err := ApplyOps(win, d); err != nil {
		return false
	}
	tail := len(old.Recs) - hi
	if len(new.Recs) != lo+len(win.Recs)+tail {
		return false
	}
	same := func(a, b []*core.SignedRecord) bool {
		for i := range a {
			if !partition.SameRecord(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	return same(old.Recs[:lo], new.Recs[:lo]) && same(win.Recs, new.Recs[lo:lo+len(win.Recs)]) &&
		same(old.Recs[hi:], new.Recs[len(new.Recs)-tail:])
}

// identity is the (key, row id, kind) an op addresses, as an entry
// compareTo can order against: a delete addresses a record.
func (op Op) identity() core.SignedRecord {
	kind := core.KindRecord
	if op.Kind == OpUpsert {
		kind = op.Rec.Kind
	}
	return core.SignedRecord{Kind: kind, Tuple: relation.Tuple{Key: op.Key, RowID: op.RowID}}
}

func upsert(rec *core.SignedRecord) Op {
	return Op{Kind: OpUpsert, Key: rec.Key(), RowID: rec.Tuple.RowID, Rec: rec.Clone()}
}

// ApplyOps mutates sr in place with the delta's operations and returns
// the indexes whose entries (or neighbourhoods) were affected — the set
// ValidateTouched must check. No cryptographic validation happens here;
// callers that need the all-or-nothing contract pass a scratch clone.
// The split exists for multi-shard transactions: the serving layer
// applies every shard's sub-batch, stitches the cross-shard mirrors, and
// only then validates — edge neighbourhoods cannot be checked before
// their mirrors are fresh.
//
// When sr carries a crypto index (core.AggIndex), it is maintained in
// lock-step: record inserts and deletes become O(log n) tree updates at
// the same positions, and the touched entries' leaves are recomputed at
// the end — the delta-cutover half of the crypto index, costing
// O(ops · log n) instead of an O(n) index rebuild. Because the index is
// persistent, the pre-delta epoch's index (shared via Clone) is never
// disturbed. Bookkeeping that finds the index out of step with the
// records, or an op signature the index cannot hold, refuses the delta
// with core.ErrAggIndex.
func ApplyOps(sr *core.SignedRelation, d Delta) ([]int, error) {
	return applyOps(sr, d, find)
}

func applyOps(sr *core.SignedRelation, d Delta, locate search) ([]int, error) {
	if d.Relation != sr.Schema.Name {
		return nil, fmt.Errorf("%w: delta for %q, relation %q", ErrRelationName, d.Relation, sr.Schema.Name)
	}
	scratch := sr
	touched := map[int]bool{}
	markAround := func(i int) {
		for _, j := range []int{i - 1, i, i + 1} {
			if j >= 0 && j < len(scratch.Recs) {
				touched[j] = true
			}
		}
	}
	for _, op := range d.Ops {
		switch op.Kind {
		case OpDelete:
			pos, ok := locate(scratch.Recs, op.Key, op.RowID, core.KindRecord)
			if !ok {
				return nil, fmt.Errorf("%w: delete of missing record (%d, %d)", ErrBadOp, op.Key, op.RowID)
			}
			scratch.Recs = slices.Delete(scratch.Recs, pos, pos+1)
			if err := scratch.AggIndexDeleteAt(pos); err != nil {
				return nil, err
			}
			// Renumber: everything at/after pos shifted.
			shifted := map[int]bool{}
			for i := range touched {
				if i > pos {
					shifted[i-1] = true
				} else {
					shifted[i] = true
				}
			}
			touched = shifted
			markAround(pos - 1)
			markAround(pos)
		case OpUpsert:
			// Every kind carries its identity, so an upsert in place keeps
			// the sequence in identity order.
			if op.Rec.Key() != op.Key || op.Rec.Tuple.RowID != op.RowID {
				return nil, fmt.Errorf("%w: upsert identity mismatch", ErrBadOp)
			}
			pos, ok := locate(scratch.Recs, op.Key, op.RowID, op.Rec.Kind)
			rec := op.Rec.Clone()
			if ok {
				scratch.Recs[pos] = &rec
				markAround(pos)
				continue
			}
			if op.Rec.Kind != core.KindRecord {
				return nil, fmt.Errorf("%w: delimiter upsert for absent delimiter", ErrBadOp)
			}
			scratch.Recs = slices.Insert(scratch.Recs, pos, &rec)
			if err := scratch.AggIndexInsertAt(pos); err != nil {
				return nil, err
			}
			shifted := map[int]bool{}
			for i := range touched {
				if i >= pos {
					shifted[i+1] = true
				} else {
					shifted[i] = true
				}
			}
			touched = shifted
			markAround(pos)
		default:
			return nil, fmt.Errorf("%w: kind %d", ErrBadOp, op.Kind)
		}
	}
	out := make([]int, 0, len(touched))
	for i := range touched {
		if i >= 0 && i < len(scratch.Recs) {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	// Re-signed entries changed their σ leaves, and their neighbours'
	// signed digests changed with them: refresh exactly the touched
	// neighbourhood's index leaves.
	if err := scratch.RefreshAggIndex(out); err != nil {
		return nil, err
	}
	return out, nil
}

// CheckOpSigs refuses, as ErrValidation, a delta with an upsert whose
// signature decodes to no value below N. It runs before ApplyOps, whose
// crypto-index bookkeeping decodes op signatures before any is verified
// and would refuse such an op as core.ErrAggIndex, so the delta paths
// refuse a bad signature as one whatever its bytes decode to.
func CheckOpSigs(pub *sig.PublicKey, d Delta) error {
	for i, op := range d.Ops {
		if op.Kind != OpUpsert {
			continue
		}
		if _, err := pub.SigValue(sig.Signature(op.Rec.Sig)); err != nil {
			return fmt.Errorf("%w: op %d signature: %v", ErrValidation, i, err)
		}
	}
	return nil
}

// ValidateTouched checks the digest material and signatures of the given
// entries against the owner's key — the half that follows ApplyOps. With
// slice set, the first and last entries are treated as shard-slice
// context records: their digest material is still checked, but their
// signatures bind records outside the slice and are skipped (the owning
// shard, or the serving layer's seam re-validation, checks them).
func ValidateTouched(h *hashx.Hasher, pub *sig.PublicKey, sr *core.SignedRelation, touched []int, slice bool) error {
	return validate(h, pub, nil, sr, touched, slice, true, true)
}

// ValidateStaged is ValidateTouched for a shard slice staged from the
// published slice (ApplyOps on its clone, plus mirror stitches), with the
// cross-node deferral: context-record signatures are always skipped (they
// bind off-slice records), and the edge-most owned record's signature is
// skipped on a side whose adjacent mirror lives on another node and may
// be stale until the coordinator's mirror fix (leftFresh or rightFresh
// false). Digest material is checked everywhere regardless, reusing the
// published entry's chain digests where they are unchanged
// (CheckEntryDigests); every signature not deferred is verified.
func ValidateStaged(h *hashx.Hasher, pub *sig.PublicKey, published, staged *core.SignedRelation, touched []int, leftFresh, rightFresh bool) error {
	return validate(h, pub, published, staged, touched, true, leftFresh, rightFresh)
}

// validate is the one touched-entry loop behind ValidateTouched and
// ValidateStaged.
func validate(h *hashx.Hasher, pub *sig.PublicKey, published, sr *core.SignedRelation, touched []int, slice, leftFresh, rightFresh bool) error {
	n := len(sr.Recs)
	for _, i := range touched {
		if i < 0 || i >= n {
			continue
		}
		if err := CheckEntryDigests(h, published, sr, i); err != nil {
			return fmt.Errorf("%w: %v", ErrValidation, err)
		}
		switch {
		case slice && (i == 0 || i == n-1) && sr.Recs[i].Kind == core.KindRecord:
			continue
		case i == 1 && !leftFresh:
			continue
		case i == n-2 && !rightFresh:
			continue
		}
		if !sr.VerifyEntrySig(h, pub, i) {
			return fmt.Errorf("%w: entry %d signature", ErrValidation, i)
		}
	}
	return nil
}

// CheckEntryDigests re-proves staged entry i's digest material. The
// entry of published with the same identity, found by binary search,
// lends its chain digests when they are unchanged
// (core.CheckEntryDigestsBeside): published must be a slice whose every
// entry was itself re-proved — at install, at recovery or by an earlier
// delta — or nil, which re-derives everything. AttrRoot and G are
// recomputed from the tuple either way.
func CheckEntryDigests(h *hashx.Hasher, published, staged *core.SignedRelation, i int) error {
	var proved *core.SignedRecord
	if published != nil && i >= 0 && i < len(staged.Recs) {
		rec := staged.Recs[i]
		if j, ok := find(published.Recs, rec.Key(), rec.Tuple.RowID, rec.Kind); ok {
			proved = published.Recs[j]
		}
	}
	return staged.CheckEntryDigestsBeside(h, i, proved)
}

// Size returns the operation count — the sync-traffic metric (a snapshot
// would be O(n) records; a k-record update is O(k) upserts plus their
// neighbours).
func (d Delta) Size() int { return len(d.Ops) }
