package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"vcqr/internal/hashx"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
)

// SignedRelation is the owner's authenticated form of a relation: the
// tuples sorted on K, bracketed by the two fictitious delimiter records
// (Section 3.1), each carrying its digest material and neighbour-chained
// signature. The owner distributes it to publishers; it contains no
// secrets.
type SignedRelation struct {
	Params Params
	Schema relation.Schema
	// Recs[0] is the left delimiter (key L), Recs[len-1] the right
	// delimiter (key U), and Recs[1..n] the data records in key order.
	// A record that is in a relation is never written, not one field:
	// clones share them, so an editor swaps the pointer (Own).
	Recs []*SignedRecord

	// aggIdx is the per-epoch crypto index (see aggindex.go): product
	// trees over the entry signatures and their FDH values that turn
	// contiguous-range aggregation into an O(log n) operation, and the
	// only source of a served condensed signature. Unexported so it never
	// travels in gob snapshots — every publication builds it, and a slice
	// without a current one is refused (ErrAggIndex). Owner-side mutators
	// that edit Recs without index bookkeeping (Insert, Delete,
	// UpdateAttrs) drop it; the relation is indexed when it is published.
	aggIdx *AggIndex
}

// ErrRelationMismatch reports a relation whose domain differs from Params.
var ErrRelationMismatch = errors.New("core: relation domain does not match params")

// Build signs a relation: it computes the chain structures and g(r) for
// every record, inserts the delimiters, and produces the neighbour-chained
// signatures of formula (1). The result is in this build's RecordFormat,
// whatever format p names.
func Build(h *hashx.Hasher, key *sig.PrivateKey, p Params, rel *relation.Relation) (*SignedRelation, error) {
	p.Format = RecordFormat
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if rel.L != p.L || rel.U != p.U {
		return nil, fmt.Errorf("%w: relation (%d,%d) vs params (%d,%d)", ErrRelationMismatch, rel.L, rel.U, p.L, p.U)
	}
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	// One backing array holds every record, so the relation's reads stay
	// local; Recs points into it. Until Build returns nothing else can
	// reach these records, so it fills them in place.
	backing := make([]SignedRecord, rel.Len()+2)
	sr := &SignedRelation{Params: p, Schema: rel.Schema, Recs: make([]*SignedRecord, len(backing))}
	for i := range backing {
		sr.Recs[i] = &backing[i]
	}
	left, err := makeDelim(h, p, KindDelimLeft)
	if err != nil {
		return nil, err
	}
	backing[0] = left
	right, err := makeDelim(h, p, KindDelimRight)
	if err != nil {
		return nil, err
	}
	backing[len(backing)-1] = right

	// Record digests are independent of each other; derive them in
	// parallel. Signing then needs the neighbours' g digests, so it runs
	// as a second parallel pass. The result is byte-identical to a
	// sequential build (everything is deterministic and indexed).
	if err := parallelRange(rel.Len(), func(i int) error {
		rec, err := makeRecord(h, p, rel.Tuples[i])
		if err != nil {
			return err
		}
		backing[i+1] = rec
		return nil
	}); err != nil {
		return nil, err
	}
	if err := parallelRange(len(backing), func(i int) error {
		backing[i].Sig = key.Sign(sr.sigDigest(h, i))
		return nil
	}); err != nil {
		return nil, err
	}
	return sr, nil
}

// parallelRange runs fn(0..n-1) across a bounded worker pool and returns
// the error of the lowest failing index — the error a serial scan would
// return. Indices are handed out in order, so when index i fails every
// index below it is already in flight: the pool records the minimum and
// hands out no index above it. Small inputs run inline.
func parallelRange(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		next   int
		failAt = n
		fail   error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= failAt {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				if err := fn(i); err != nil {
					mu.Lock()
					if i < failAt {
						failAt, fail = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return fail
}

// makeRecord derives the digest material for a data tuple.
func makeRecord(h *hashx.Hasher, p Params, t relation.Tuple) (SignedRecord, error) {
	if t.Key <= p.L || t.Key >= p.U {
		return SignedRecord{}, fmt.Errorf("%w: key %d", ErrKeyDomain, t.Key)
	}
	up, err := sideCombined(h, nil, p, t.Key, Up)
	if err != nil {
		return SignedRecord{}, err
	}
	down, err := sideCombined(h, nil, p, t.Key, Down)
	if err != nil {
		return SignedRecord{}, err
	}
	attrRoot, c := AttrRoot(h, t), h.CDigest(up, down)
	return SignedRecord{
		Kind:         KindRecord,
		Tuple:        t.Clone(),
		UpCombined:   up,
		DownCombined: down,
		Combined:     c,
		AttrRoot:     attrRoot,
		G:            recordG(h, KindRecord, c, attrRoot),
	}, nil
}

// makeDelim derives the digest material for a delimiter. The left
// delimiter sits at key L and has only an Up chain; the right delimiter
// sits at key U and has only a Down chain.
func makeDelim(h *hashx.Hasher, p Params, kind Kind) (SignedRecord, error) {
	var (
		key      uint64
		up, down hashx.Digest
	)
	switch kind {
	case KindDelimLeft:
		key = p.L
		var err error
		if up, err = sideCombined(h, nil, p, key, Up); err != nil {
			return SignedRecord{}, err
		}
		down = markerNoChain(h)
	case KindDelimRight:
		key = p.U
		var err error
		if down, err = sideCombined(h, nil, p, key, Down); err != nil {
			return SignedRecord{}, err
		}
		up = markerNoChain(h)
	default:
		return SignedRecord{}, fmt.Errorf("core: makeDelim on kind %v", kind)
	}
	attrRoot, c := markerDelimAttr(h), h.CDigest(up, down)
	return SignedRecord{
		Kind:         kind,
		Tuple:        relation.Tuple{Key: key},
		UpCombined:   up,
		DownCombined: down,
		Combined:     c,
		AttrRoot:     attrRoot,
		G:            recordG(h, kind, c, attrRoot),
	}, nil
}

// sigDigest computes the formula (1) pre-signature digest for entry i,
// with the paper's h(L) / h(U) virtual neighbours at the two ends and the
// publication version bound in (see Params.Version).
func (sr *SignedRelation) sigDigest(h *hashx.Hasher, i int) hashx.Digest {
	var prev, next hashx.Digest // nil: the virtual end beyond a delimiter
	if i > 0 {
		prev = sr.Recs[i-1].G
	}
	if i < len(sr.Recs)-1 {
		next = sr.Recs[i+1].G
	}
	return SigDigestFor(h, sr.Params, prev, sr.Recs[i].G, next)
}

// SigDigestFor is the user-side counterpart of sigDigest: the digest a
// signature must verify against given the three reconstructed g values.
// Callers pass nil for prev/next at the virtual ends. The expected
// version comes from Params, which the user obtained over the
// authenticated channel — a stale publication fails here.
func SigDigestFor(h *hashx.Hasher, p Params, prev, cur, next hashx.Digest) hashx.Digest {
	b := h.Batch()
	defer b.Done()
	return AppendSigDigest(&b, nil, p, prev, cur, next)
}

// AppendSigDigest appends SigDigestFor's digest to dst, hashing on b:
// the neighbours' virtual ends and version binding go through stack
// scratch, so a caller whose dst is on its stack allocates nothing.
func AppendSigDigest(b *hashx.Batch, dst []byte, p Params, prev, cur, next hashx.Digest) []byte {
	var pb, nb [hashx.MaxSize]byte
	return b.SigDigest(dst, signedNeighbour(b, pb[:0], p, prev, p.L), cur, signedNeighbour(b, nb[:0], p, next, p.U))
}

// signedNeighbour is one neighbour slot of the signed digest, written
// into dst when it is hashed: g, or when g is nil the virtual end digest
// of bound — the paper's h(L) and h(U) in sig(r_0) = s(h(h(L) | g(r_0) |
// g(r_1))) — with the publication version folded in unless it is 0, the
// paper's original unversioned form. Folding the version into the
// neighbour slots (rather than a fourth SigDigest input) keeps the signed
// payload at the paper's three components while making every signature
// version-specific.
func signedNeighbour(b *hashx.Batch, dst []byte, p Params, g hashx.Digest, bound uint64) hashx.Digest {
	if g == nil {
		g = b.Hash(dst, endTag, hashx.U64(bound))
	}
	if p.Version == 0 {
		return g
	}
	return b.Hash(dst[:0], hashx.U64(p.Version), g)
}

// Len returns the number of data records (excluding delimiters).
func (sr *SignedRelation) Len() int { return len(sr.Recs) - 2 }

// RangeIndices returns the half-open interval [a, b) over sr.Recs of data
// records with keys in [lo, hi]. Delimiters never qualify because data
// keys are strictly inside (L, U), and a shard slice's context records,
// its first and last entries, are never searched. Two binary searches
// over the interior, which is in key order (Validate); b is never below
// a, so lo > hi gives an empty interval at lo's position.
func (sr *SignedRelation) RangeIndices(lo, hi uint64) (int, int) {
	if len(sr.Recs) < 3 {
		return 1, 1
	}
	in := sr.Recs[1 : len(sr.Recs)-1]
	a := sort.Search(len(in), func(i int) bool { return in[i].Tuple.Key >= lo })
	b := a + sort.Search(len(in)-a, func(i int) bool { return in[a+i].Tuple.Key > hi })
	return 1 + a, 1 + b
}

// Validate checks a whole relation the way a publisher must on ingest:
// delimiters at both ends, data records in key order, and CheckEntries
// over every entry — all four digest components and every signature.
func (sr *SignedRelation) Validate(h *hashx.Hasher, pub *sig.PublicKey) error {
	if len(sr.Recs) < 2 {
		return errors.New("core: signed relation missing delimiters")
	}
	if sr.Recs[0].Kind != KindDelimLeft || sr.Recs[len(sr.Recs)-1].Kind != KindDelimRight {
		return errors.New("core: delimiters missing or mislabelled")
	}
	for i := 1; i < len(sr.Recs)-1; i++ {
		rec, prev := sr.Recs[i], sr.Recs[i-1]
		if rec.Kind != KindRecord {
			return fmt.Errorf("core: interior entry %d has kind %v", i, rec.Kind)
		}
		if prev.Kind == KindRecord {
			if prev.Key() > rec.Key() || (prev.Key() == rec.Key() && prev.Tuple.RowID >= rec.Tuple.RowID) {
				return fmt.Errorf("core: entries %d,%d out of order", i-1, i)
			}
		}
	}
	return sr.CheckEntries(h, pub, nil)
}

// CheckEntries re-proves every entry: CheckEntryDigests on each, and
// VerifyEntrySig on each that sigged admits (nil admits every entry).
// Entries are independent, so the work runs on Build's worker pool, and
// a refusal names the lowest failing entry, as a serial scan would. It is
// the one whole-relation validation loop: Validate and a node's slice
// validation both run it after their structural checks.
func (sr *SignedRelation) CheckEntries(h *hashx.Hasher, pub *sig.PublicKey, sigged func(i int) bool) error {
	return parallelRange(len(sr.Recs), func(i int) error {
		if err := sr.CheckEntryDigests(h, i); err != nil {
			return err
		}
		if (sigged == nil || sigged(i)) && !sr.VerifyEntrySig(h, pub, i) {
			return fmt.Errorf("core: entry %d signature invalid", i)
		}
		return nil
	})
}

// Clone returns a copy of the signed relation whose record sequence is
// its own but whose records are the original's, shared by pointer — the
// staging copy a delta is applied on, one pointer per record rather than
// a copy of every record.
//
// The rule that makes this safe: a record that is in a relation is never
// written, not one field of it, nor a byte of its digests, signature or
// tuple. Every editor replaces the pointer (ApplyOps, mirror stitching)
// or takes Own, which swaps in a private deep copy (the re-signs in
// Insert/Delete/UpdateAttrs). So replacing, inserting or deleting
// records in the clone, or editing what Own returns, never shows in the
// original, and the original's records never change under the clone.
//
// The crypto index is carried over by reference — it is persistent
// (immutable nodes), so the clone and the original can diverge via
// index updates without affecting each other; callers that mutate Recs
// directly must RefreshAggIndex, and refuse the edit on its error, before
// serving aggregates.
func (sr *SignedRelation) Clone() *SignedRelation {
	return &SignedRelation{Params: sr.Params, Schema: sr.Schema, aggIdx: sr.aggIdx, Recs: slices.Clone(sr.Recs)}
}

// Own replaces entry i with a deep copy of itself and returns the copy,
// the one record of sr that sr may write: the original, which clones of
// sr may share, is left untouched.
func (sr *SignedRelation) Own(i int) *SignedRecord {
	rec := sr.Recs[i].Clone()
	sr.Recs[i] = &rec
	return &rec
}

// VerifyEntrySig checks the formula-(1) signature of entry i against the
// stored g digests of its neighbours. This is the cheap local check a
// publisher runs on records touched by an incremental update. When a
// crypto index is attached its per-record FDH cache answers without
// re-deriving the full-domain hash (the cached leaf is tag-checked
// against the recomputed signed digest, so staleness degrades to the
// slow path, never to a wrong verdict).
func (sr *SignedRelation) VerifyEntrySig(h *hashx.Hasher, pub *sig.PublicKey, i int) bool {
	if i < 0 || i >= len(sr.Recs) {
		return false
	}
	if ix := sr.aggIdx; ix.current(sr, pub) {
		return ix.VerifyEntry(h, sr, i)
	}
	return pub.Verify(sr.sigDigest(h, i), sr.Recs[i].Sig)
}

// CheckEntryDigests recomputes entry i's digest material from its tuple
// and compares against the stored values — the expensive half of
// publisher-side validation, catching an owner feed whose digests do not
// match the tuples they claim to cover: G, the chain digest C it folds,
// and the components VOs and boundary proofs ship in its place (the two
// combined chain digests and the attribute root).
func (sr *SignedRelation) CheckEntryDigests(h *hashx.Hasher, i int) error {
	return sr.CheckEntryDigestsBeside(h, i, nil)
}

// CheckEntryDigestsBeside is CheckEntryDigests that reuses a proved
// entry's chain digests instead of re-deriving them. proved must be an
// entry of this relation's params whose digest material was itself
// re-proved (or nil). UpCombined and DownCombined are a pure function
// of params, kind and key, so when proved has entry i's kind and key
// and byte-equal chain digests, entry i's chain digests are exactly what
// the derivation would yield and the derivation — the expensive half —
// is skipped. AttrRoot, C and G are recomputed from the tuple and the
// chain digests and compared every time: a changed tuple, a C that does
// not fold the two chain digests or a G that does not fold C and the
// attribute root is refused as before. Any other proved (nil included)
// gets the full derivation.
func (sr *SignedRelation) CheckEntryDigestsBeside(h *hashx.Hasher, i int, proved *SignedRecord) error {
	if i < 0 || i >= len(sr.Recs) {
		return fmt.Errorf("core: entry %d out of range", i)
	}
	rec := sr.Recs[i]
	var want SignedRecord
	var err error
	switch {
	case proved != nil && proved.Kind == rec.Kind && proved.Key() == rec.Key() &&
		proved.UpCombined.Equal(rec.UpCombined) && proved.DownCombined.Equal(rec.DownCombined):
		want.UpCombined, want.DownCombined = rec.UpCombined, rec.DownCombined
		if rec.Kind == KindRecord {
			want.AttrRoot = AttrRoot(h, rec.Tuple)
		} else {
			want.AttrRoot = markerDelimAttr(h)
		}
		want.Combined = h.CDigest(want.UpCombined, want.DownCombined)
		want.G = recordG(h, rec.Kind, want.Combined, want.AttrRoot)
	case rec.Kind == KindRecord:
		want, err = makeRecord(h, sr.Params, rec.Tuple)
	default:
		want, err = makeDelim(h, sr.Params, rec.Kind)
	}
	if err != nil {
		return err
	}
	if !want.G.Equal(rec.G) || !want.Combined.Equal(rec.Combined) || !want.UpCombined.Equal(rec.UpCombined) ||
		!want.DownCombined.Equal(rec.DownCombined) || !want.AttrRoot.Equal(rec.AttrRoot) {
		return fmt.Errorf("core: entry %d digest material inconsistent with its tuple", i)
	}
	return nil
}

// Insert adds a tuple to the signed relation, maintaining sort order and
// replica numbering, and re-signs the minimal set of entries: the new
// record and its two neighbours. It returns the number of signatures
// recomputed (always 3) — the Section 6.3 update-cost story.
func (sr *SignedRelation) Insert(h *hashx.Hasher, key *sig.PrivateKey, t relation.Tuple) (resigned int, err error) {
	sr.aggIdx = nil // owner-side edit: no index bookkeeping here
	if len(t.Attrs) != len(sr.Schema.Cols) {
		return 0, relation.ErrArity
	}
	if t.Key <= sr.Params.L || t.Key >= sr.Params.U {
		return 0, fmt.Errorf("%w: key %d", ErrKeyDomain, t.Key)
	}
	// Assign a replica number unique among equal keys.
	var replica uint64
	pos := 1
	for ; pos < len(sr.Recs)-1; pos++ {
		rec := sr.Recs[pos]
		if rec.Key() > t.Key {
			break
		}
		if rec.Key() == t.Key && rec.Tuple.RowID >= replica {
			replica = rec.Tuple.RowID + 1
		}
	}
	t.RowID = replica
	rec, err := makeRecord(h, sr.Params, t)
	if err != nil {
		return 0, err
	}
	sr.Recs = slices.Insert(sr.Recs, pos, &rec)
	return sr.resignAround(h, key, pos), nil
}

// Delete removes the record with (key, rowID) and re-signs its two former
// neighbours. It reports the number of signatures recomputed (2), or an
// error if the record does not exist.
func (sr *SignedRelation) Delete(h *hashx.Hasher, key *sig.PrivateKey, k, rowID uint64) (resigned int, err error) {
	sr.aggIdx = nil // owner-side edit: no index bookkeeping here
	pos := -1
	for i := 1; i < len(sr.Recs)-1; i++ {
		if sr.Recs[i].Key() == k && sr.Recs[i].Tuple.RowID == rowID {
			pos = i
			break
		}
	}
	if pos < 0 {
		return 0, fmt.Errorf("core: delete: record (%d,%d) not found", k, rowID)
	}
	sr.Recs = slices.Delete(sr.Recs, pos, pos+1)
	n := 0
	for _, i := range []int{pos - 1, pos} {
		if i >= 0 && i < len(sr.Recs) {
			sr.Own(i).Sig = key.Sign(sr.sigDigest(h, i))
			n++
		}
	}
	return n, nil
}

// UpdateAttrs replaces the non-key attributes of the record with
// (key, rowID) and re-signs the record and its two neighbours (3
// signatures: the doubly-linked-list locality argument of Section 6.3).
func (sr *SignedRelation) UpdateAttrs(h *hashx.Hasher, key *sig.PrivateKey, k, rowID uint64, attrs []relation.Value) (resigned int, err error) {
	sr.aggIdx = nil // owner-side edit: no index bookkeeping here
	if len(attrs) != len(sr.Schema.Cols) {
		return 0, relation.ErrArity
	}
	for i := 1; i < len(sr.Recs)-1; i++ {
		if sr.Recs[i].Key() == k && sr.Recs[i].Tuple.RowID == rowID {
			t := sr.Recs[i].Tuple.Clone()
			t.Attrs = attrs
			rec, err := makeRecord(h, sr.Params, t)
			if err != nil {
				return 0, err
			}
			sr.Recs[i] = &rec
			return sr.resignAround(h, key, i), nil
		}
	}
	return 0, fmt.Errorf("core: update: record (%d,%d) not found", k, rowID)
}

// resignAround recomputes the signatures of entry pos and its immediate
// neighbours; a change to g(r_i) invalidates exactly sig(r_{i-1}),
// sig(r_i), sig(r_{i+1}) by formula (1).
func (sr *SignedRelation) resignAround(h *hashx.Hasher, key *sig.PrivateKey, pos int) int {
	n := 0
	for _, i := range []int{pos - 1, pos, pos + 1} {
		if i >= 0 && i < len(sr.Recs) {
			sr.Own(i).Sig = key.Sign(sr.sigDigest(h, i))
			n++
		}
	}
	return n
}
