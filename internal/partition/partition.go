package partition

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/sig"
)

// Errors.
var (
	// ErrSpec reports a malformed partition spec.
	ErrSpec = errors.New("partition: malformed spec")
	// ErrSplit reports a relation that cannot be split as requested.
	ErrSplit = errors.New("partition: cannot split relation")
	// ErrKeyOutside reports a key outside the partitioned domain.
	ErrKeyOutside = errors.New("partition: key outside domain")
	// ErrSetInvalid reports a shard set that fails validation.
	ErrSetInvalid = errors.New("partition: shard set invalid")
)

// Spec describes a K-way range partition of one relation: K+1 cut keys
// with Cuts[0] = L and Cuts[K] = U. Shard i (0-based) owns the keys in
// the half-open interval (Cuts[i], Cuts[i+1]]; since data keys are
// strictly inside (L, U), the last shard effectively owns up to U-1.
// Cut keys may coincide with record keys — a record with key equal to a
// cut belongs to the shard below it.
//
// The spec is distributed to users over the authenticated channel
// alongside the owner's public key. It is advisory for verification
// (the chain alone proves completeness) but authoritative for the
// fail-fast shard-sequencing checks and for delta routing.
type Spec struct {
	Relation string
	Cuts     []uint64
	// Version orders successive layouts of the same relation: an owner
	// republishing with different cuts bumps it, and the serving control
	// plane (internal/cluster) refuses to mix slices from two versions.
	// It plays no part in verification — the chain alone proves
	// completeness whatever the layout — so 0 (the only version a
	// publication ever has unless the owner re-cuts) is a valid version.
	Version uint64
}

// Same reports whether two specs describe the same layout of the same
// relation at the same version.
func (s Spec) Same(o Spec) bool {
	if s.Relation != o.Relation || s.Version != o.Version || len(s.Cuts) != len(o.Cuts) {
		return false
	}
	for i, c := range s.Cuts {
		if o.Cuts[i] != c {
			return false
		}
	}
	return true
}

// K returns the shard count.
func (s Spec) K() int { return len(s.Cuts) - 1 }

// L and U return the domain bounds the spec covers.
func (s Spec) L() uint64 { return s.Cuts[0] }

// U returns the upper domain bound.
func (s Spec) U() uint64 { return s.Cuts[len(s.Cuts)-1] }

// Validate checks structural consistency.
func (s Spec) Validate() error {
	if s.Relation == "" {
		return fmt.Errorf("%w: empty relation name", ErrSpec)
	}
	if len(s.Cuts) < 2 {
		return fmt.Errorf("%w: %d cuts", ErrSpec, len(s.Cuts))
	}
	for i := 1; i < len(s.Cuts); i++ {
		if s.Cuts[i] <= s.Cuts[i-1] {
			return fmt.Errorf("%w: cuts not strictly increasing at %d", ErrSpec, i)
		}
	}
	return nil
}

// ShardFor returns the index of the shard owning key, which must lie in
// the open domain (L, U).
func (s Spec) ShardFor(key uint64) (int, error) {
	if key <= s.L() || key >= s.U() {
		return 0, fmt.Errorf("%w: %d", ErrKeyOutside, key)
	}
	// Smallest i with key <= Cuts[i+1].
	i := sort.Search(s.K(), func(i int) bool { return key <= s.Cuts[i+1] })
	return i, nil
}

// Span returns the closed key span shard i owns, clamped to the open
// domain: [Cuts[i]+1, Cuts[i+1]], with the last shard's top at U-1.
func (s Spec) Span(i int) (lo, hi uint64) {
	lo, hi = s.Cuts[i]+1, s.Cuts[i+1]
	if hi >= s.U() {
		hi = s.U() - 1
	}
	return lo, hi
}

// SubRange is the part of a query range one shard covers.
type SubRange struct {
	Shard  int
	Lo, Hi uint64
}

// Decompose splits an effective query range [lo, hi] (inclusive, already
// normalized to the open domain) into per-shard sub-ranges in shard
// order. Every interior range intersects at least one shard span, so the
// result is never empty for a valid range.
func (s Spec) Decompose(lo, hi uint64) []SubRange {
	var out []SubRange
	for i := 0; i < s.K(); i++ {
		sLo, sHi := s.Span(i)
		if sHi < lo || sLo > hi {
			continue
		}
		sub := SubRange{Shard: i, Lo: sLo, Hi: sHi}
		if lo > sLo {
			sub.Lo = lo
		}
		if hi < sHi {
			sub.Hi = hi
		}
		out = append(out, sub)
	}
	return out
}

// Set is a partitioned publication: the spec plus one slice per shard.
// Slice i holds the shard's owned records at positions [1, len-2] with
// its two context records at positions 0 and len-1 — the same positional
// convention as an unpartitioned signed relation, whose delimiters also
// bracket the data. Slices returned by Split share the source relation's
// backing array; treat them as immutable snapshots (clone before
// mutating), exactly as the serving layer already does.
type Set struct {
	Spec   Spec
	Slices []*core.SignedRelation
}

// Split partitions a signed relation into k shards of near-equal record
// counts. Duplicate keys never straddle a cut (a cut is always the key of
// the last record below it), and every shard owns at least one record.
func Split(sr *core.SignedRelation, k int) (*Set, error) {
	n := sr.Len()
	if k < 1 {
		return nil, fmt.Errorf("%w: k=%d", ErrSplit, k)
	}
	if n < k {
		return nil, fmt.Errorf("%w: %d records into %d shards", ErrSplit, n, k)
	}
	// t[i] = number of records owned by shards 0..i-1; cut i is the key of
	// record t[i] (1-based in Recs), slid forward past duplicate runs so
	// equal keys stay together.
	t := make([]int, k+1)
	t[k] = n
	cuts := make([]uint64, k+1)
	cuts[0] = sr.Params.L
	cuts[k] = sr.Params.U
	for i := 1; i < k; i++ {
		ti := i * n / k
		if ti < t[i-1]+1 {
			ti = t[i-1] + 1
		}
		for ti < n && sr.Recs[ti+1].Key() == sr.Recs[ti].Key() {
			ti++
		}
		if ti >= n {
			return nil, fmt.Errorf("%w: duplicate run leaves shard %d empty", ErrSplit, i)
		}
		t[i] = ti
		cuts[i] = sr.Recs[ti].Key()
		if cuts[i] <= cuts[i-1] {
			return nil, fmt.Errorf("%w: cut %d not increasing", ErrSplit, i)
		}
	}
	return SplitIndices(sr, Spec{Relation: sr.Schema.Name, Cuts: cuts}, t)
}

// SplitIndices builds the shard slices for a spec whose record boundaries
// are already known: t[i] is the count of records owned by shards below
// i. Exposed for deterministic tests; Split is the usual entry point.
func SplitIndices(sr *core.SignedRelation, spec Spec, t []int) (*Set, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	k := spec.K()
	if len(t) != k+1 || t[0] != 0 || t[k] != sr.Len() {
		return nil, fmt.Errorf("%w: boundary indices", ErrSplit)
	}
	set := &Set{Spec: spec, Slices: make([]*core.SignedRelation, k)}
	for i := 0; i < k; i++ {
		if t[i+1] <= t[i] {
			return nil, fmt.Errorf("%w: shard %d owns no records", ErrSplit, i)
		}
		// Owned records are Recs[t[i]+1 .. t[i+1]]; the slice adds one
		// context position on each side: [t[i] .. t[i+1]+1].
		set.Slices[i] = &core.SignedRelation{
			Params: sr.Params,
			Schema: sr.Schema,
			Recs:   sr.Recs[t[i] : t[i+1]+2 : t[i+1]+2],
		}
	}
	return set, nil
}

// SameRecord reports whether two records are the same publication entry:
// identity, digest, and signature all equal. This is the hand-off
// equality the mirror-maintenance protocol preserves. One record shared
// by reference (records in a relation are never written, see
// SignedRelation.Clone) is the same entry without a field compared.
func SameRecord(a, b *core.SignedRecord) bool {
	return a == b || a.Kind == b.Kind && a.Key() == b.Key() && a.Tuple.RowID == b.Tuple.RowID &&
		a.G.Equal(b.G) && bytes.Equal(a.Sig, b.Sig)
}

// HandoffOK reports whether two adjacent shard slices agree on their
// shared pair of hand-off records: left's last owned record must be
// right's left context, and right's first owned record must be left's
// right context. The serving layer runs this check when it pins an epoch
// set for a cross-shard query; a mismatch means a boundary-crossing delta
// is mid-cutover and the pin must be retried.
func HandoffOK(left, right *core.SignedRelation) bool {
	ln, rn := len(left.Recs), len(right.Recs)
	if ln < 3 || rn < 3 {
		return false
	}
	return SameRecord(left.Recs[ln-2], right.Recs[0]) &&
		SameRecord(left.Recs[ln-1], right.Recs[1])
}

// Edges is the seam material of one shard slice: its first three and
// last three entries (which overlap when the slice owns a single
// record). Six records are exactly enough to run, without the rest of
// the slice, both halves of a seam check — the hand-off digest compare
// (HandoffOK over Tail/Head pairs) and the two hand-off signature
// verifications (CheckSeam), each of which needs one signed record plus
// the g digests of its two in-chain neighbours. The coordinator/node
// tier ships Edges where the in-process server would pass whole slices.
type Edges struct {
	// Head is Recs[0..2]: the left context record and the first two
	// entries after it.
	Head [3]core.SignedRecord
	// Tail is Recs[len-3..len-1]: the last two entries before the right
	// context record, and the context record itself.
	Tail [3]core.SignedRecord
}

// EdgesOf extracts a slice's seam material. The records alias the slice
// (epoch snapshots are immutable); serialization copies them.
func EdgesOf(sr *core.SignedRelation) Edges {
	var e Edges
	n := len(sr.Recs)
	for i := 0; i < 3 && i < n; i++ {
		e.Head[i] = *sr.Recs[i]
		e.Tail[2-i] = *sr.Recs[n-1-i]
	}
	// A slice shorter than 3 entries is malformed; the zero records left
	// behind fail CheckSeam's signature verification rather than pass.
	return e
}

// HandoffOK is the cross-slice digest compare of HandoffOK run on edge
// material alone: the left slice's last owned record must be the right
// slice's left context, and vice versa.
func (e Edges) HandoffOK(right Edges) bool {
	return SameRecord(&e.Tail[1], &right.Head[0]) && SameRecord(&e.Tail[2], &right.Head[1])
}

// CheckSeam verifies one seam from edge material: the hand-off digest
// compare plus both hand-off signatures — the left shard's last owned
// record and the right shard's first owned record, each against its
// in-chain neighbours' g digests. This is everything a delta or a shard
// migration can break at a seam; interior records are validated by the
// shard that owns them.
func CheckSeam(h *hashx.Hasher, pub *sig.PublicKey, p core.Params, left, right Edges) error {
	if !left.HandoffOK(right) {
		return fmt.Errorf("%w: hand-off records disagree", ErrSetInvalid)
	}
	digest := core.SigDigestFor(h, p, left.Tail[0].G, left.Tail[1].G, left.Tail[2].G)
	if !pub.Verify(digest, left.Tail[1].Sig) {
		return fmt.Errorf("%w: left hand-off signature invalid", ErrSetInvalid)
	}
	digest = core.SigDigestFor(h, p, right.Head[0].G, right.Head[1].G, right.Head[2].G)
	if !pub.Verify(digest, right.Head[1].Sig) {
		return fmt.Errorf("%w: right hand-off signature invalid", ErrSetInvalid)
	}
	return nil
}

// SliceDigest folds a slice's entire record sequence — identity, digest
// material, and signature bytes of every entry — into one digest. Two
// slices with equal digests are the same publication state; the digest
// is how a shard transfer proves integrity end to end and how a control
// plane detects divergence between two copies of a shard without
// shipping either. It is a comparison primitive, not a security
// boundary: a forged slice still dies on signature validation.
//
// The fold is a hash chain, dᵢ = H(dᵢ₋₁, kind, key‖row id, G, Sig) from
// d₋₁ = H("partition/slice-digest"), and the digest is the last link.
func SliceDigest(h *hashx.Hasher, sr *core.SignedRelation) hashx.Digest {
	d, _ := SliceDigestFrom(h, sr, nil, 0)
	return d
}

// SliceDigestFrom is SliceDigest resumed at entry from. run holds the
// running digests of a slice whose first from entries are sr's — link i
// at run[i·size:(i+1)·size], as a previous call returned them — and only
// sr's entries from there on are hashed. from is clamped to the links run
// holds (nil run: the whole slice is hashed). It returns sr's digest and
// sr's running digests, in fresh storage: run is only read.
func SliceDigestFrom(h *hashx.Hasher, sr *core.SignedRelation, run []byte, from int) (hashx.Digest, []byte) {
	size := h.Size()
	from = max(0, min(from, len(sr.Recs), len(run)/size))
	out := make([]byte, from*size, len(sr.Recs)*size)
	copy(out, run)
	b := h.Batch()
	defer b.Done()
	var seed [hashx.MaxSize]byte
	last := b.Hash(seed[:0], []byte("partition/slice-digest"))
	if from > 0 {
		last = out[(from-1)*size:]
	}
	for i := from; i < len(sr.Recs); i++ {
		rec := sr.Recs[i]
		out = b.Hash(out, last, []byte{byte(rec.Kind)}, hashx.U64Pair(rec.Key(), rec.Tuple.RowID), rec.G, rec.Sig)
		last = out[i*size:]
	}
	return hashx.Digest(last).Clone(), out
}

// FirstDiff returns the index of the first entry at which a and b differ
// (SameRecord), or the shorter length when one is a prefix of the other:
// the entry SliceDigestFrom resumes b's digest at from a's running
// digests. An entry the two slices share by reference
// (SignedRelation.Clone) is equal by pointer, without a field compared.
func FirstDiff(a, b *core.SignedRelation) int {
	n := min(len(a.Recs), len(b.Recs))
	for i := range n {
		if !SameRecord(a.Recs[i], b.Recs[i]) {
			return i
		}
	}
	return n
}

// SameSlice reports whether two slices have the same SliceDigest,
// compared entry by entry (SameRecord) instead of through the digest:
// the same fields, no hashing, and an entry the two slices share by
// reference (SignedRelation.Clone) is equal by pointer.
func SameSlice(a, b *core.SignedRelation) bool {
	return len(a.Recs) == len(b.Recs) && FirstDiff(a, b) == len(a.Recs)
}

// Stitch reassembles the global record sequence from the shard slices,
// dropping the duplicated hand-off records. The result is the
// unpartitioned signed relation the set was split from (or has evolved
// into under deltas).
func (set *Set) Stitch() (*core.SignedRelation, error) {
	if len(set.Slices) == 0 {
		return nil, fmt.Errorf("%w: no slices", ErrSetInvalid)
	}
	total := 0
	for _, sl := range set.Slices {
		total += len(sl.Recs)
	}
	out := &core.SignedRelation{
		Params: set.Slices[0].Params,
		Schema: set.Slices[0].Schema,
		Recs:   make([]*core.SignedRecord, 0, total),
	}
	for i, sl := range set.Slices {
		if len(sl.Recs) < 3 {
			return nil, fmt.Errorf("%w: shard %d has %d entries", ErrSetInvalid, i, len(sl.Recs))
		}
		recs := sl.Recs
		if i > 0 {
			recs = recs[1:] // left context duplicates the previous slice
		}
		if i < len(set.Slices)-1 {
			recs = recs[:len(recs)-1] // right context duplicates the next slice
		}
		out.Recs = append(out.Recs, recs...)
	}
	return out, nil
}

// Validate checks the whole set the way a publisher must on ingest:
// spec consistency, hand-off agreement between every adjacent pair,
// owned keys inside their shard spans, and — after stitching the global
// sequence back together — the full per-record digest and signature
// validation of the unpartitioned scheme. Anything a corrupted owner
// feed (or a tampered snapshot file) could hide in a slice is caught
// here.
func (set *Set) Validate(h *hashx.Hasher, pub *sig.PublicKey) error {
	if err := set.Spec.Validate(); err != nil {
		return err
	}
	if len(set.Slices) != set.Spec.K() {
		return fmt.Errorf("%w: %d slices for %d shards", ErrSetInvalid, len(set.Slices), set.Spec.K())
	}
	for i, sl := range set.Slices {
		if sl.Params != set.Slices[0].Params {
			return fmt.Errorf("%w: shard %d params differ", ErrSetInvalid, i)
		}
		if len(sl.Recs) < 3 {
			return fmt.Errorf("%w: shard %d owns no records", ErrSetInvalid, i)
		}
		lo, hi := set.Spec.Span(i)
		for j := 1; j < len(sl.Recs)-1; j++ {
			if k := sl.Recs[j].Key(); k < lo || k > hi {
				return fmt.Errorf("%w: shard %d record key %d outside span [%d,%d]", ErrSetInvalid, i, k, lo, hi)
			}
		}
		if i > 0 && !HandoffOK(set.Slices[i-1], sl) {
			return fmt.Errorf("%w: hand-off between shards %d and %d disagrees", ErrSetInvalid, i-1, i)
		}
	}
	first, last := set.Slices[0], set.Slices[len(set.Slices)-1]
	if first.Recs[0].Kind != core.KindDelimLeft || last.Recs[len(last.Recs)-1].Kind != core.KindDelimRight {
		return fmt.Errorf("%w: delimiters missing at domain ends", ErrSetInvalid)
	}
	global, err := set.Stitch()
	if err != nil {
		return err
	}
	if err := global.Validate(h, pub); err != nil {
		return fmt.Errorf("%w: %v", ErrSetInvalid, err)
	}
	return nil
}
