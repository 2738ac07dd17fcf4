package core

import (
	"bytes"
	"fmt"
	"math/big"
	"slices"

	"vcqr/internal/hashx"
	"vcqr/internal/sig"
)

// AggIndex is the per-epoch crypto index of a signed relation — the
// aggregation fast path. It holds two persistent product trees
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
// The serving layer builds it once at publish time; a delta cutover
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
		return nil, fmt.Errorf("core: agg index: %w", err)
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
		return nil, fmt.Errorf("core: agg index insert at %d: %w", i, err)
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
			return nil, fmt.Errorf("core: agg index refresh at %d: %w", i, err)
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

// AggIndex returns the relation's crypto index, or nil when none is
// attached (the naive O(|Q|) aggregation path then applies).
func (sr *SignedRelation) AggIndex() *AggIndex { return sr.aggIdx }

// BuildAggIndex builds and attaches the crypto index — the publish-time
// step of the aggregation fast path. Any error (malformed signature
// material) leaves the relation unindexed on the correct-but-slow path.
func (sr *SignedRelation) BuildAggIndex(h *hashx.Hasher, pub *sig.PublicKey) error {
	ix, err := BuildAggIndex(h, pub, sr)
	if err != nil {
		sr.aggIdx = nil
		return err
	}
	sr.aggIdx = ix
	return nil
}

// RefreshAggIndex recomputes the index leaves of the touched entries and
// their neighbours after in-place record changes (delta application,
// shard mirror stitching). A refresh failure detaches the index — the
// relation falls back to naive aggregation rather than ever serving a
// product derived from stale leaves. No-op when no index is attached.
func (sr *SignedRelation) RefreshAggIndex(touched []int) {
	if sr.aggIdx == nil {
		return
	}
	if sr.aggIdx.Len() != len(sr.Recs) {
		sr.aggIdx = nil
		return
	}
	ix, err := sr.aggIdx.refreshed(sr, touched)
	if err != nil {
		sr.aggIdx = nil
		return
	}
	sr.aggIdx = ix
}

// AggIndexInsertAt mirrors a record insertion at position pos into the
// attached index (placeholder FDH leaf; callers must RefreshAggIndex the
// touched neighbourhood afterwards). No-op when no index is attached; on
// any inconsistency the index is detached.
func (sr *SignedRelation) AggIndexInsertAt(pos int) {
	if sr.aggIdx == nil {
		return
	}
	if pos < 0 || pos >= len(sr.Recs) || sr.aggIdx.Len() != len(sr.Recs)-1 {
		sr.aggIdx = nil
		return
	}
	ix, err := sr.aggIdx.insertAt(pos, &sr.Recs[pos])
	if err != nil {
		sr.aggIdx = nil
		return
	}
	sr.aggIdx = ix
}

// AggIndexDeleteAt mirrors a record deletion at position pos into the
// attached index. No-op when no index is attached.
func (sr *SignedRelation) AggIndexDeleteAt(pos int) {
	if sr.aggIdx == nil {
		return
	}
	if pos < 0 || pos >= sr.aggIdx.Len() || sr.aggIdx.Len() != len(sr.Recs)+1 {
		sr.aggIdx = nil
		return
	}
	sr.aggIdx = sr.aggIdx.deleteAt(pos)
}
