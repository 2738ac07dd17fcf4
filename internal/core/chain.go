package core

import (
	"fmt"

	"vcqr/internal/basep"
	"vcqr/internal/hashx"
	"vcqr/internal/mht"
)

// digitChains holds, for one (key, direction) pair, the iterated-hash
// chain of every digit position up to the maximum count any representation
// can need (2B-1, by the lemma's digit bounds). chains[j][c] = h^c(r|j).
//
// Building all of them once makes owner-side signing O(m*B) hash
// operations instead of O(m^2*B), because the canonical representation and
// all m preferred non-canonical representations share these chain values.
type digitChains struct {
	p      Params
	key    uint64
	dir    Direction
	size   int    // digest width
	counts int    // chain values kept per digit: counts 0..2B-1
	chains []byte // h^c(r|j) at ((j*counts)+c)*size, one block for all digits
}

// newDigitChains computes the chains for a key in one direction.
func newDigitChains(h *hashx.Hasher, p Params, key uint64, dir Direction) *digitChains {
	b := h.Batch()
	defer b.Done()
	dc := &digitChains{p: p, key: key, dir: dir, size: h.Size(), counts: int(2 * p.BP.B)}
	dc.chains = make([]byte, 0, p.BP.Digits*dc.counts*dc.size)
	for j := 0; j < p.BP.Digits; j++ {
		dc.chains = b.Iterate(dc.chains, preimage(key, j, dir), 0)
		for c := 1; c < dc.counts; c++ {
			dc.chains = b.IterateFrom(dc.chains, dc.chains[len(dc.chains)-dc.size:], 1)
		}
	}
	return dc
}

// tip returns h^count(r|j). It aliases the chain block: read-only.
func (dc *digitChains) tip(j int, count uint64) hashx.Digest {
	if count >= uint64(dc.counts) {
		panic(fmt.Sprintf("core: digit %d chain count %d exceeds precomputed %d", j, count, dc.counts-1))
	}
	at := (j*dc.counts + int(count)) * dc.size
	return dc.chains[at : at+dc.size : at+dc.size]
}

// maxTips bounds one direction's chain tips laid end to end, so every
// representation digest is hashed from one stack block.
const maxTips = basep.MaxDigits * hashx.MaxSize

// repDigest appends the digest of one representation to dst: the hash over
// the concatenated per-digit chain tips, h(h^{d_0}(r|0) | .. | h^{d_m}(r|m)).
// Digit positions marked basep.InvalidDigit (the undefined component of an
// invalid preferred representation) are dropped from the concatenation, as
// prescribed in Section 5.1.
func (dc *digitChains) repDigest(b *hashx.Batch, dst []byte, rep basep.Rep) []byte {
	var tips [maxTips]byte
	t := tips[:0]
	for j, d := range rep.Digits {
		if d != basep.InvalidDigit {
			t = append(t, dc.tip(j, d)...)
		}
	}
	return b.Hash(dst, t)
}

// chainSide is everything the owner derives for one (record, direction):
// the canonical-representation digest h(delta_t), the Merkle tree over the
// m preferred non-canonical representations (Figure 7), and the combined
// digest h(h(delta_t) | MHT root) that enters g(r).
type chainSide struct {
	canon    basep.Rep
	canonDig hashx.Digest
	repTree  *mht.Tree
	Combined hashx.Digest
}

// buildChainSide computes the full chain-side structure for a key.
func buildChainSide(h *hashx.Hasher, p Params, key uint64, dir Direction) (*chainSide, error) {
	dt, err := p.deltaT(key, dir)
	if err != nil {
		return nil, err
	}
	canon, err := basep.Canonical(p.BP, dt)
	if err != nil {
		return nil, err
	}
	dc := newDigitChains(h, p, key, dir)
	b := h.Batch()
	defer b.Done()
	canonDig := hashx.Digest(dc.repDigest(&b, nil, canon))
	m := p.BP.M()
	leaves := make([]hashx.Digest, m)
	for i := 0; i < m; i++ {
		rep, _ := basep.Preferred(canon, i)
		leaves[i] = dc.repDigest(&b, nil, rep)
	}
	tree := mht.BuildFromDigests(h, leaves)
	return &chainSide{
		canon:    canon,
		canonDig: canonDig,
		repTree:  tree,
		Combined: combineChain(&b, nil, canonDig, tree.Root()),
	}, nil
}

// combineChain folds the canonical-representation digest and the
// representation-tree root into the per-direction component of g(r),
// appended to dst: Figure 7's h(h(delta_t) | MHT root).
func combineChain(b *hashx.Batch, dst []byte, canonDig, repRoot hashx.Digest) hashx.Digest {
	return b.Hash(dst, canonDig, repRoot)
}

// entryCombined recomputes the per-direction combined digest for a record
// whose key the user KNOWS (Figure 8(b), EntryG) and appends it to dst:
// walk each digit chain by the canonical digit of delta_t (at most B-1
// iterations per digit), hash the tips laid end to end, and fold in the
// representation-tree root. It runs in one stack frame: no
// representation, no per-digit digest, no part list.
func entryCombined(b *hashx.Batch, dst []byte, p Params, key uint64, dir Direction, repRoot hashx.Digest) (hashx.Digest, error) {
	dt, err := p.deltaT(key, dir)
	if err != nil {
		return nil, err
	}
	if err := p.BP.Validate(); err != nil {
		return nil, err
	}
	var tips [maxTips]byte
	t := tips[:0]
	for j := 0; j < p.BP.Digits; j++ {
		t = b.Iterate(t, preimage(key, j, dir), dt%p.BP.B)
		dt /= p.BP.B
	}
	if dt != 0 {
		return nil, basep.ErrOverflow
	}
	var canon [hashx.MaxSize]byte
	return combineChain(b, dst, b.Hash(canon[:0], t), repRoot), nil
}

// ChainProof is the publisher's proof that a *hidden* boundary key lies
// outside a query bound (Figure 8(a)). The user extends each intermediate
// digest by the canonical digits of delta_c = (bound-relative extension),
// reconstructs the digest of the representation the publisher chose, and
// folds it into the combined digest for comparison against the signature
// chain.
type ChainProof struct {
	// Canonical is true when the canonical representation of delta_t
	// dominates delta_c digitwise and was used directly.
	Canonical bool
	// Index is the preferred-representation index used when !Canonical.
	Index int
	// Intermediates holds the m+1 digests h^{deltaE_i}(r|i).
	Intermediates []hashx.Digest
	// RepRoot is the representation-tree root (when Canonical).
	RepRoot hashx.Digest
	// CanonDigest is the canonical-representation digest (when !Canonical).
	CanonDigest hashx.Digest
	// RepPath is the audit path for leaf Index (when !Canonical).
	RepPath []mht.PathElem
}

// proveChain builds the ChainProof that this side's key lies outside
// bound: key < bound for Up, key > bound for Down. Returns ErrNotOutside
// when the condition is false — precisely the case the scheme makes
// unforgeable.
func (dc *digitChains) proveChain(h *hashx.Hasher, cs *chainSide, bound uint64) (ChainProof, error) {
	p := dc.p
	dt, err := p.deltaT(dc.key, dc.dir)
	if err != nil {
		return ChainProof{}, err
	}
	dcBound, err := p.deltaC(bound, dc.dir)
	if err != nil {
		return ChainProof{}, err
	}
	if dt < dcBound {
		return ChainProof{}, fmt.Errorf("%w: key %d vs bound %d (%s)", ErrNotOutside, dc.key, bound, dc.dir)
	}
	sel, err := basep.Select(p.BP, dt, dcBound)
	if err != nil {
		return ChainProof{}, err
	}
	inter := make([]hashx.Digest, p.BP.Digits)
	for j, e := range sel.DeltaE {
		inter[j] = dc.tip(j, e).Clone()
	}
	if sel.Canonical {
		return ChainProof{
			Canonical:     true,
			Index:         -1,
			Intermediates: inter,
			RepRoot:       cs.repTree.Root(),
		}, nil
	}
	return ChainProof{
		Canonical:     false,
		Index:         sel.Index,
		Intermediates: inter,
		CanonDigest:   cs.canonDig,
		RepPath:       cs.repTree.Path(sel.Index),
	}, nil
}

// repTreeDepth returns the audit-path length of the m-leaf representation
// tree (padded to a power of two).
func repTreeDepth(m int) int {
	d := 0
	for w := 1; w < m; w <<= 1 {
		d++
	}
	return d
}

// verifyChain reconstructs the per-direction combined digest implied by a
// ChainProof and a query bound. It does NOT decide validity by itself: the
// caller folds the result into g(r) and checks the signature chain. An
// error reports a structurally malformed proof.
func verifyChain(h *hashx.Hasher, p Params, proof ChainProof, dir Direction, bound uint64) (hashx.Digest, error) {
	dcBound, err := p.deltaC(bound, dir)
	if err != nil {
		return nil, err
	}
	if err := p.BP.Validate(); err != nil {
		return nil, err
	}
	if len(proof.Intermediates) != p.BP.Digits {
		return nil, fmt.Errorf("%w: %d intermediates, want %d", ErrProofShape, len(proof.Intermediates), p.BP.Digits)
	}
	b := h.Batch()
	defer b.Done()
	// The user extends intermediate j by the j-th canonical digit of
	// delta_c — the only representation arithmetic the user performs.
	var tips [maxTips]byte
	t := tips[:0]
	for j, d := range proof.Intermediates {
		if len(d) != h.Size() {
			return nil, fmt.Errorf("%w: intermediate %d has width %d", ErrProofShape, j, len(d))
		}
		t = b.IterateFrom(t, d, dcBound%p.BP.B)
		dcBound /= p.BP.B
	}
	if dcBound != 0 {
		return nil, basep.ErrOverflow
	}
	var rep [hashx.MaxSize]byte
	repDig := hashx.Digest(b.Hash(rep[:0], t))
	m := p.BP.M()
	if proof.Canonical {
		if len(proof.RepRoot) != h.Size() {
			return nil, fmt.Errorf("%w: bad rep root width", ErrProofShape)
		}
		return combineChain(&b, nil, repDig, proof.RepRoot), nil
	}
	if proof.Index < 0 || proof.Index >= m {
		return nil, fmt.Errorf("%w: representation index %d out of [0,%d)", ErrProofShape, proof.Index, m)
	}
	if len(proof.RepPath) != repTreeDepth(m) {
		return nil, fmt.Errorf("%w: rep path length %d, want %d", ErrProofShape, len(proof.RepPath), repTreeDepth(m))
	}
	if len(proof.CanonDigest) != h.Size() {
		return nil, fmt.Errorf("%w: bad canonical digest width", ErrProofShape)
	}
	// Check the audit path is consistent with the claimed leaf index so a
	// publisher cannot place the reconstructed digest at a different leaf.
	idx := proof.Index
	for _, e := range proof.RepPath {
		wantRight := idx%2 == 0
		if e.Right != wantRight {
			return nil, fmt.Errorf("%w: rep path direction mismatch", ErrProofShape)
		}
		idx /= 2
	}
	root := mht.RootFromPath(h, repDig, proof.RepPath)
	return combineChain(&b, nil, proof.CanonDigest, root), nil
}

// Size returns the number of digests carried by the proof; the traffic
// accounting unit of formula (4).
func (cp ChainProof) Size() int {
	n := len(cp.Intermediates)
	if cp.Canonical {
		return n + 1 // + rep root
	}
	return n + 1 + len(cp.RepPath) // + canonical digest + audit path
}
