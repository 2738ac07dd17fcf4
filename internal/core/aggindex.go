package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"slices"

	"vcqr/internal/hashx"
	"vcqr/internal/sig"
)

// AggIndex is the per-epoch crypto index of a signed relation — the one
// source of the condensed signatures the publisher ships. It holds two persistent product trees
// (sig.ProductTree) with one leaf per entry of sr.Recs:
//
//   - the σ tree: leaf i is the decoded signature value of entry i, so
//     the condensed signature over any contiguous run [a, b) of the
//     chain — exactly what a range query's VO footer carries — costs
//     O(log n) modular multiplications (RangeAggregate) instead of the
//     O(b-a) the per-entry fold pays;
//
//   - the FDH tree: leaf i is FDH(sigDigest(i)), tagged with the digest
//     it was derived from, so the publisher can (a) verify any entry's
//     signature without re-hashing (VerifyEntry — the per-record FDH
//     cache the delta validator runs on) and (b) check a condensed
//     signature over any contiguous run with ONE exponentiation and
//     O(log n) multiplications (VerifyRange), never touching a record.
//
// Both trees are persistent: every mutation returns a new index sharing
// all untouched nodes, so an index is a copy-on-write snapshot member.
// The serving layer builds it once at publish time (a slice it cannot
// index is refused, see ErrAggIndex); a delta cutover
// derives the successor epoch's index with O(ops · log n) work
// (insertAt/deleteAt for structural changes, refreshed for re-signed
// neighbourhoods) while readers keep using the old epoch's index.
//
// The tags make the FDH cache self-checking rather than trusted:
// VerifyEntry recomputes the (cheap, hash-only) signed digest and falls
// back to a full FDH derivation if the cached leaf was computed from
// anything else, so a stale leaf can cost time but never correctness.
type AggIndex struct {
	h    *hashx.Hasher
	pub  *sig.PublicKey
	sigs *sig.ProductTree
	fdhs *sig.ProductTree
}

// BuildAggIndex derives the index for a signed relation: O(n)
// multiplications and FDH derivations, paid once per publication (the
// owner-side analogue of sorting before you binary-search).
func BuildAggIndex(h *hashx.Hasher, pub *sig.PublicKey, sr *SignedRelation) (*AggIndex, error) {
	n := len(sr.Recs)
	sigs := make([]sig.Signature, n)
	fdhVals := make([]*big.Int, n)
	tags := make([][]byte, n)
	for i := 0; i < n; i++ {
		sigs[i] = sig.Signature(sr.Recs[i].Sig)
		d := sr.sigDigest(h, i)
		fdhVals[i] = pub.FDH(d)
		tags[i] = d
	}
	sigT, err := pub.NewSigTree(sigs)
	if err != nil {
		return nil, fmt.Errorf("%w: build: %w", ErrAggIndex, err)
	}
	return &AggIndex{
		h:    h,
		pub:  pub,
		sigs: sigT,
		fdhs: pub.NewProductTree(fdhVals, tags),
	}, nil
}

// Len returns the number of indexed entries (including delimiters),
// which must equal len(sr.Recs) for the index to be usable.
func (ix *AggIndex) Len() int { return ix.sigs.Len() }

// Key returns the verification key the index was built against.
func (ix *AggIndex) Key() *sig.PublicKey { return ix.pub }

// RangeAggregate returns the condensed signature over entries [a, b) in
// O(log n) multiplications.
func (ix *AggIndex) RangeAggregate(a, b int) (sig.Signature, error) {
	return ix.sigs.RangeSig(a, b)
}

// RangeFDH returns the expected FDH product over entries [a, b) — what a
// verifier's accumulator would hold after folding those entries' signed
// digests — in O(log n) multiplications.
func (ix *AggIndex) RangeFDH(a, b int) *big.Int { return ix.fdhs.Range(a, b) }

// VerifyRange checks a condensed signature over entries [a, b) with a
// single public-key exponentiation, using the cached FDH product instead
// of re-hashing any record.
//
// On a partition shard slice, only ranges inside [1, len-1) — the owned
// region — are locally verifiable: the two context records' signatures
// bind g digests the slice does not hold, so a range touching them fails
// closed here exactly as their signature checks are deferred to the
// owning shard in delta.ValidateTouched and delta.ValidateStaged.
func (ix *AggIndex) VerifyRange(a, b int, agg sig.Signature) bool {
	if a >= b {
		return false
	}
	return ix.pub.VerifyFDH(ix.RangeFDH(a, b), agg)
}

// VerifyEntry checks entry i's formula-(1) signature using the cached
// FDH leaf. The signed digest is recomputed (hash-only, cheap) and
// compared against the leaf's tag, so a leaf the refresh discipline
// missed degrades to the slow path instead of validating against stale
// material.
func (ix *AggIndex) VerifyEntry(h *hashx.Hasher, sr *SignedRelation, i int) bool {
	d := sr.sigDigest(h, i)
	want, tag := ix.fdhs.At(i)
	if !bytes.Equal(tag, d) {
		want = ix.pub.FDH(d)
	}
	return ix.pub.VerifyFDH(want, sig.Signature(sr.Recs[i].Sig))
}

// insertAt returns an index with placeholder leaves for a new entry at
// position i: the σ leaf is real (decoded from rec's signature), the FDH
// leaf is a stale-tagged unit awaiting refresh — sigDigest(i) depends on
// neighbours that may still change within the same batch.
func (ix *AggIndex) insertAt(i int, rec *SignedRecord) (*AggIndex, error) {
	v, err := ix.pub.SigValue(sig.Signature(rec.Sig))
	if err != nil {
		return nil, fmt.Errorf("%w: insert at %d: %w", ErrAggIndex, i, err)
	}
	return &AggIndex{
		h:    ix.h,
		pub:  ix.pub,
		sigs: ix.sigs.Insert(i, v, nil),
		fdhs: ix.fdhs.Insert(i, big.NewInt(1), nil),
	}, nil
}

// deleteAt returns an index with entry i's leaves removed.
func (ix *AggIndex) deleteAt(i int) *AggIndex {
	return &AggIndex{h: ix.h, pub: ix.pub, sigs: ix.sigs.Delete(i), fdhs: ix.fdhs.Delete(i)}
}

// refreshed returns an index with the leaves of every touched entry —
// and its immediate neighbours, whose signed digests bind the touched
// g values — recomputed from the relation's current state. The leaves
// are gathered first and each tree is rebuilt once (UpdateMany), so an
// ancestor shared by several refreshed leaves costs one rebuild:
// O(t + log n) multiplications for a run of t adjacent leaves.
// The ±1 expansion deliberately overlaps with callers (delta.ApplyOps)
// whose touched sets already include neighbourhoods: refreshing a
// distance-2 leaf costs microseconds, while an under-refreshed leaf
// would cost a wrong (client-rejected) aggregate — so every caller gets
// the conservative semantics.
func (ix *AggIndex) refreshed(sr *SignedRelation, touched []int) (*AggIndex, error) {
	n := min(len(sr.Recs), ix.Len())
	pos := make([]int, 0, 3*len(touched))
	next := 0 // the lowest leaf not gathered yet
	for _, t := range slices.Sorted(slices.Values(touched)) {
		for i := max(t-1, next); i <= t+1 && i < n; i++ {
			pos = append(pos, i)
		}
		next = max(next, t+2)
	}
	sigVals := make([]*big.Int, len(pos))
	fdhVals := make([]*big.Int, len(pos))
	tags := make([][]byte, len(pos))
	for k, i := range pos {
		v, err := ix.pub.SigValue(sig.Signature(sr.Recs[i].Sig))
		if err != nil {
			return nil, fmt.Errorf("%w: refresh at %d: %w", ErrAggIndex, i, err)
		}
		d := sr.sigDigest(ix.h, i)
		sigVals[k], fdhVals[k], tags[k] = v, ix.pub.FDH(d), d
	}
	return &AggIndex{
		h:    ix.h,
		pub:  ix.pub,
		sigs: ix.sigs.UpdateMany(pos, sigVals, nil),
		fdhs: ix.fdhs.UpdateMany(pos, fdhVals, tags),
	}, nil
}

// --- SignedRelation attachment ---------------------------------------

// ErrAggIndex reports a relation whose crypto index cannot serve it: none
// attached, a leaf count other than len(Recs), an index built for
// another key, or signature bytes the σ tree cannot hold. Condensed
// signatures are assembled from the index alone, so a published slice
// always carries a current one, and this error is a refusal — of the
// ingest, publication, delta or query that met it — never a slower path.
var ErrAggIndex = errors.New("core: crypto index")

// AggIndex returns the relation's crypto index, or nil when none is
// attached (an owner-side relation not yet published).
func (sr *SignedRelation) AggIndex() *AggIndex { return sr.aggIdx }

// AggIndexFor returns the relation's crypto index when it is current for
// pub: attached, one leaf per entry, built against pub's modulus and
// exponent. Anything else is ErrAggIndex.
func (sr *SignedRelation) AggIndexFor(pub *sig.PublicKey) (*AggIndex, error) {
	ix := sr.aggIdx
	switch {
	case ix.current(sr, pub):
		return ix, nil
	case ix == nil:
		return nil, fmt.Errorf("%w: none attached", ErrAggIndex)
	case ix.Len() != len(sr.Recs):
		return nil, fmt.Errorf("%w: %d leaves for %d entries", ErrAggIndex, ix.Len(), len(sr.Recs))
	}
	return nil, fmt.Errorf("%w: built for another key", ErrAggIndex)
}

// current reports whether ix serves sr under pub: attached, one leaf per
// entry, built against pub's modulus and exponent.
func (ix *AggIndex) current(sr *SignedRelation, pub *sig.PublicKey) bool {
	return ix != nil && ix.Len() == len(sr.Recs) &&
		(ix.pub == pub || ix.pub.E == pub.E && ix.pub.N.Cmp(pub.N) == 0)
}

// BuildAggIndex builds and attaches the crypto index, whatever the
// relation carried (EnsureAggIndex is the publication step, which keeps
// a current one). Malformed signature material fails the build with
// ErrAggIndex and leaves the relation unindexed, so the publication is
// refused.
func (sr *SignedRelation) BuildAggIndex(h *hashx.Hasher, pub *sig.PublicKey) error {
	ix, err := BuildAggIndex(h, pub, sr)
	if err != nil {
		sr.aggIdx = nil
		return err
	}
	sr.aggIdx = ix
	return nil
}

// EnsureAggIndex builds and attaches a crypto index unless the relation
// already carries one current for pub — the one indexing step of every
// publication (engine.Publisher.AddRelation, the server's ingest, install
// and recovery). A relation that cannot be indexed is ErrAggIndex.
func (sr *SignedRelation) EnsureAggIndex(h *hashx.Hasher, pub *sig.PublicKey) error {
	if sr.aggIdx.current(sr, pub) {
		return nil
	}
	return sr.BuildAggIndex(h, pub)
}

// RefreshAggIndex recomputes the index leaves of the touched entries and
// their neighbours after in-place record changes (delta application,
// shard mirror stitching). An index out of step with the records, or a
// touched signature it cannot decode, is ErrAggIndex: the caller refuses
// the edit rather than ever serving a product derived from stale leaves.
// No-op when no index is attached.
func (sr *SignedRelation) RefreshAggIndex(touched []int) error {
	if sr.aggIdx == nil {
		return nil
	}
	if sr.aggIdx.Len() != len(sr.Recs) {
		return fmt.Errorf("%w: refresh over %d leaves for %d entries", ErrAggIndex, sr.aggIdx.Len(), len(sr.Recs))
	}
	ix, err := sr.aggIdx.refreshed(sr, touched)
	if err != nil {
		return err
	}
	sr.aggIdx = ix
	return nil
}

// AggIndexInsertAt mirrors a record insertion at position pos into the
// attached index (placeholder FDH leaf; callers must RefreshAggIndex the
// touched neighbourhood afterwards). No-op when no index is attached; an
// index out of step with the insertion is ErrAggIndex.
func (sr *SignedRelation) AggIndexInsertAt(pos int) error {
	if sr.aggIdx == nil {
		return nil
	}
	if pos < 0 || pos >= len(sr.Recs) || sr.aggIdx.Len() != len(sr.Recs)-1 {
		return fmt.Errorf("%w: insert at %d over %d leaves for %d entries", ErrAggIndex, pos, sr.aggIdx.Len(), len(sr.Recs))
	}
	ix, err := sr.aggIdx.insertAt(pos, sr.Recs[pos])
	if err != nil {
		return err
	}
	sr.aggIdx = ix
	return nil
}

// AggIndexDeleteAt mirrors a record deletion at position pos into the
// attached index. No-op when no index is attached; an index out of step
// with the deletion is ErrAggIndex.
func (sr *SignedRelation) AggIndexDeleteAt(pos int) error {
	if sr.aggIdx == nil {
		return nil
	}
	if pos < 0 || pos >= sr.aggIdx.Len() || sr.aggIdx.Len() != len(sr.Recs)+1 {
		return fmt.Errorf("%w: delete at %d over %d leaves for %d entries", ErrAggIndex, pos, sr.aggIdx.Len(), len(sr.Recs))
	}
	sr.aggIdx = sr.aggIdx.deleteAt(pos)
	return nil
}
