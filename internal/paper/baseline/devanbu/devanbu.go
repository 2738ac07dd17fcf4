// Package devanbu implements the baseline scheme of Devanbu, Gertz,
// Martel and Stubblebine, "Authentic Data Publication over the Internet"
// (IFIP 11.3, 2000) — the only prior work providing completeness
// verification, and the comparison target throughout Pang et al. (SIGMOD
// 2005).
//
// The owner builds one Merkle hash tree over each sort order of a table
// and signs the root. To prove a range result [a, b] complete, the
// publisher expands it with the tuples immediately beyond both boundaries
// and ships a contiguous-range proof against the signed root. The
// characteristics Section 2.3 of Pang et al. enumerates — and that this
// implementation deliberately reproduces — are:
//
//  1. one tree per sort order;
//  2. the VO grows logarithmically with the base table;
//  3. whole tuples are hashed, so projected-out attributes (BLOBs
//     included) must still be shipped for verification;
//  4. the two boundary tuples are disclosed to the user, which can
//     contradict row-level access control (the Figure 1 problem);
//  5. every update propagates to the root digest (a locking hot-spot).
package devanbu

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"vcqr/internal/hashx"
	"vcqr/internal/paper/baseline/merkle"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
)

// Verification failures.
var (
	ErrRange     = errors.New("devanbu: malformed query range")
	ErrBoundary  = errors.New("devanbu: boundary tuples do not bracket the range")
	ErrProof     = errors.New("devanbu: range proof does not match the signed root")
	ErrSignature = errors.New("devanbu: root signature invalid")
	ErrOrder     = errors.New("devanbu: result tuples out of order")
)

// SignedTable is a table authenticated the Devanbu way: sentinel tuples at
// the domain ends (so every query has boundary tuples), a Merkle tree over
// the encoded tuples, and a signed root.
type SignedTable struct {
	Schema relation.Schema
	L, U   uint64
	// Tuples holds sentinel(L), data..., sentinel(U), sorted by key.
	Tuples []relation.Tuple
	tree   *merkle.Tree
	// RootSig is the owner's signature on the root digest.
	RootSig sig.Signature
}

// encodeTuple produces the canonical byte encoding hashed into each leaf.
// The whole tuple is encoded — characteristic (3) above.
func encodeTuple(t relation.Tuple) []byte {
	var buf bytes.Buffer
	buf.Write(hashx.U64(t.Key))
	buf.Write(hashx.U64(t.RowID))
	for _, a := range t.Attrs {
		buf.Write(a.Encode())
	}
	return buf.Bytes()
}

// Build signs a relation. The relation's tuples are copied; sentinels with
// keys L and U are added at the ends.
func Build(h *hashx.Hasher, key *sig.PrivateKey, rel *relation.Relation) (*SignedTable, error) {
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	st := &SignedTable{Schema: rel.Schema, L: rel.L, U: rel.U}
	st.Tuples = make([]relation.Tuple, 0, rel.Len()+2)
	st.Tuples = append(st.Tuples, relation.Tuple{Key: rel.L})
	for _, t := range rel.Tuples {
		st.Tuples = append(st.Tuples, t.Clone())
	}
	st.Tuples = append(st.Tuples, relation.Tuple{Key: rel.U})
	leaves := make([][]byte, len(st.Tuples))
	for i, t := range st.Tuples {
		leaves[i] = encodeTuple(t)
	}
	st.tree = merkle.Build(h, leaves)
	st.RootSig = key.Sign(hashx.Digest(st.tree.Root()))
	return st, nil
}

// Root returns the tree root (for tests and size accounting).
func (st *SignedTable) Root() hashx.Digest { return st.tree.Root() }

// QueryResult is the expanded result the scheme ships: the qualifying
// tuples plus the two boundary tuples (disclosed in full — characteristic
// (4)), a contiguous-range Merkle proof, and the signed root.
type QueryResult struct {
	// Lo, Hi is the inclusive key range queried.
	Lo, Hi uint64
	// Tuples covers boundary-left, matches..., boundary-right.
	Tuples []relation.Tuple
	Proof  merkle.RangeProof
	// Root and RootSig authenticate the tree.
	Root    hashx.Digest
	RootSig sig.Signature
}

// Query answers an inclusive range [lo, hi].
func (st *SignedTable) Query(h *hashx.Hasher, lo, hi uint64) (*QueryResult, error) {
	if lo > hi || lo <= st.L || hi >= st.U {
		return nil, fmt.Errorf("%w: [%d, %d]", ErrRange, lo, hi)
	}
	a := sort.Search(len(st.Tuples), func(i int) bool { return st.Tuples[i].Key >= lo })
	b := sort.Search(len(st.Tuples), func(i int) bool { return st.Tuples[i].Key > hi })
	// Expand by one on each side: sentinels guarantee a-1 >= 0, b < len.
	proof, err := st.tree.ProveRange(a-1, b)
	if err != nil {
		return nil, err
	}
	out := &QueryResult{Lo: lo, Hi: hi, Proof: proof, Root: st.Root().Clone(), RootSig: st.RootSig.Clone()}
	for i := a - 1; i <= b; i++ {
		out.Tuples = append(out.Tuples, st.Tuples[i].Clone())
	}
	return out, nil
}

// Update replaces the tuple at data index i (0-based among data tuples)
// and re-signs the root. It returns the number of tree nodes recomputed —
// always the full path to the root, the Section 6.3 contrast with the
// chained-signature scheme's 3 local signatures.
func (st *SignedTable) Update(h *hashx.Hasher, key *sig.PrivateKey, i int, t relation.Tuple) (int, error) {
	if i < 0 || i >= len(st.Tuples)-2 {
		return 0, fmt.Errorf("devanbu: update index %d out of range", i)
	}
	st.Tuples[i+1] = t.Clone()
	work := st.tree.Update(i+1, h.Leaf(encodeTuple(t)))
	st.RootSig = key.Sign(hashx.Digest(st.tree.Root()))
	return work, nil
}

// Verify checks a query result: root signature, tuple ordering, boundary
// bracketing, and the Merkle range proof. On success it returns the
// qualifying tuples (without the boundary tuples).
func Verify(h *hashx.Hasher, pub *sig.PublicKey, res *QueryResult) ([]relation.Tuple, error) {
	if len(res.Tuples) < 2 {
		return nil, fmt.Errorf("%w: need at least the two boundary tuples", ErrBoundary)
	}
	if !pub.Verify(hashx.Digest(res.Root), res.RootSig) {
		return nil, ErrSignature
	}
	for i := 1; i < len(res.Tuples); i++ {
		if res.Tuples[i-1].Key > res.Tuples[i].Key {
			return nil, ErrOrder
		}
	}
	first, last := res.Tuples[0], res.Tuples[len(res.Tuples)-1]
	if first.Key >= res.Lo || last.Key <= res.Hi {
		return nil, fmt.Errorf("%w: [%d .. %d] vs query [%d, %d]", ErrBoundary, first.Key, last.Key, res.Lo, res.Hi)
	}
	for _, t := range res.Tuples[1 : len(res.Tuples)-1] {
		if t.Key < res.Lo || t.Key > res.Hi {
			return nil, fmt.Errorf("%w: interior tuple key %d outside range", ErrBoundary, t.Key)
		}
	}
	leaves := make([]hashx.Digest, len(res.Tuples))
	for i, t := range res.Tuples {
		leaves[i] = h.Leaf(encodeTuple(t))
	}
	if !merkle.VerifyRange(h, res.Proof, leaves, hashx.Digest(res.Root)) {
		return nil, ErrProof
	}
	out := make([]relation.Tuple, len(res.Tuples)-2)
	copy(out, res.Tuples[1:len(res.Tuples)-1])
	return out, nil
}

// VOBytes returns the authentication overhead of a result in bytes:
// proof digests, root digest, root signature, plus the two boundary
// tuples (which the Pang scheme does not ship). Characteristic (3) means
// the *result* tuples also carry every attribute, but that is accounted
// as (inflated) payload, not VO.
func (res *QueryResult) VOBytes(digestSize, sigSize int) int {
	n := res.Proof.ProofSize()*digestSize + digestSize + sigSize
	n += res.Tuples[0].Size() + res.Tuples[len(res.Tuples)-1].Size()
	return n
}
