package core

import (
	"fmt"

	"vcqr/internal/basep"
	"vcqr/internal/hashx"
	"vcqr/internal/mht"
)

// side is one (key, direction) chain side of Section 5.1 as the owner
// signs it and the publisher proves from it: the canonical digits c_j of
// delta_t and, per digit j, the iterated-hash chain h^0..h^top_j(r|j),
// laid end to end in one block. A chain runs only as far as a
// representation of this key reaches: every preferred representation
// adds B to digit 0 and B-1 to the digits it borrows through, so top_0 =
// c_0+B and top_j = c_j+B-1 above it. A boundary proof's exponents
// DeltaE never exceed the representation it chose, so they stay inside
// too.
type side struct {
	h     *hashx.Hasher
	p     Params
	key   uint64
	dir   Direction
	size  int // digest width
	dt    uint64
	canon basep.Rep
	// at[j] is the digest offset of h^0(r|j) in chains; at[Digits] ends
	// the last chain.
	at     [basep.MaxDigits + 1]int
	chains []byte
	// tips is the canonical representation's tips laid end to end,
	// h^{c_0}(r|0) | .. | h^{c_m}(r|m): the canonical digest's message
	// and, from digit i+2 on, preferred representation i's tail.
	tips []byte
}

// newSide sizes a chain side for a key; hashChains computes it.
func newSide(h *hashx.Hasher, p Params, key uint64, dir Direction) (side, error) {
	dt, err := p.deltaT(key, dir)
	if err != nil {
		return side{}, err
	}
	canon, err := basep.Canonical(p.BP, dt)
	if err != nil {
		return side{}, err
	}
	s := side{h: h, p: p, key: key, dir: dir, size: h.Size(), dt: dt, canon: canon}
	n := 0
	for j, c := range canon.Digits {
		s.at[j] = n
		n += int(c + p.BP.B) // h^0..h^{c_j+B-1}
		if j == 0 {
			n++ // digit 0 reaches c_0+B
		}
	}
	s.at[len(canon.Digits)] = n
	return s, nil
}

// hashChains computes every digit chain and the canonical tips into one
// fresh block, each chain h^0..h^top in one call on b's kernel.
func (s *side) hashChains(b *hashx.Batch) {
	digits := len(s.canon.Digits)
	block := make([]byte, 0, (s.at[digits]+digits)*s.size)
	for j := 0; j < digits; j++ {
		block = b.Chain(block, preimage(s.key, j, s.dir), uint64(s.at[j+1]-s.at[j]-1))
	}
	s.chains = block
	for j, c := range s.canon.Digits {
		block = append(block, s.tip(j, c)...)
	}
	s.tips = block[len(s.chains):]
}

// tip returns h^count(r|j). It aliases the chain block: read-only.
func (s *side) tip(j int, count uint64) hashx.Digest {
	if count >= uint64(s.at[j+1]-s.at[j]) {
		panic(fmt.Sprintf("core: digit %d chain count %d exceeds precomputed %d", j, count, s.at[j+1]-s.at[j]-1))
	}
	at := s.at[j] + int(count)
	return s.chains[at*s.size : (at+1)*s.size : (at+1)*s.size]
}

// maxTips bounds one direction's chain tips laid end to end, so every
// representation digest is hashed from one stack block.
const maxTips = basep.MaxDigits * hashx.MaxSize

// maxLeaves bounds one side's representation leaves padded to a power of
// two (m < basep.MaxDigits), so the tree folds in one stack block.
const maxLeaves = basep.MaxDigits * hashx.MaxSize

// canonDigest appends h(delta_t)'s digest, the hash over the canonical
// tips, to dst.
func (s *side) canonDigest(b *hashx.Batch, dst []byte) []byte {
	return b.Hash(dst, s.tips)
}

// leaves appends the digests of the m preferred non-canonical
// representations (basep.Preferred) to dst, each the hash over its
// per-digit chain tips. Representation i is digit 0 at c_0+B, digits
// 1..i at c_j+B-1, digit i+1 at c_{i+1}-1 — dropped from the
// concatenation when c_{i+1} = 0 makes it invalid (Section 5.1) — and
// the canonical digits above. Representations i and i+1 agree on digits
// 0..i, so one running hash absorbs that prefix a digit at a time and
// each leaf finishes a fork of it with its own tail.
func (s *side) leaves(dst []byte) []byte {
	m := s.p.BP.M()
	pre := s.h.Prefix()
	defer pre.Done()
	c := s.canon.Digits
	pre.Write(s.tip(0, c[0]+s.p.BP.B))
	for i := 0; i < m; i++ {
		var borrowed []byte
		if c[i+1] > 0 {
			borrowed = s.tip(i+1, c[i+1]-1)
		}
		dst = pre.Sum(dst, borrowed, s.tips[(i+2)*s.size:])
		if i+1 < m {
			pre.Write(s.tip(i+1, c[i+1]+s.p.BP.B-1))
		}
	}
	return dst
}

// sideCombined appends one chain side's component of g(r) to dst: Figure
// 7's h(h(delta_t) | MHT root) over the m representation leaves. The
// record path needs nothing else of the side.
func sideCombined(h *hashx.Hasher, dst []byte, p Params, key uint64, dir Direction) (hashx.Digest, error) {
	s, err := newSide(h, p, key, dir)
	if err != nil {
		return nil, err
	}
	b := h.Batch()
	defer b.Done()
	s.hashChains(&b)
	var canon [hashx.MaxSize]byte
	var leaves [maxLeaves]byte
	return combineChain(&b, dst, s.canonDigest(&b, canon[:0]), mht.Root(&b, s.leaves(leaves[:0]))), nil
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

// proveSide builds the ChainProof that key lies outside bound in
// direction dir: key < bound for Up, key > bound for Down. Returns
// ErrNotOutside when the condition is false — precisely the case the
// scheme makes unforgeable — before hashing anything. It computes the
// side's chains once and folds the representation leaves once, taking
// the root (canonical proofs) or the audit path (the others) from the
// one fold.
func proveSide(h *hashx.Hasher, p Params, key uint64, dir Direction, bound uint64) (ChainProof, error) {
	s, err := newSide(h, p, key, dir)
	if err != nil {
		return ChainProof{}, err
	}
	dcBound, err := p.deltaC(bound, dir)
	if err != nil {
		return ChainProof{}, err
	}
	if s.dt < dcBound {
		return ChainProof{}, fmt.Errorf("%w: key %d vs bound %d (%s)", ErrNotOutside, key, bound, dir)
	}
	sel, err := basep.Select(p.BP, s.dt, dcBound)
	if err != nil {
		return ChainProof{}, err
	}
	b := h.Batch()
	defer b.Done()
	s.hashChains(&b)
	inter := make([]hashx.Digest, len(sel.DeltaE))
	block := make([]byte, 0, len(sel.DeltaE)*s.size)
	for j, e := range sel.DeltaE {
		block = append(block, s.tip(j, e)...)
		inter[j] = block[j*s.size : (j+1)*s.size : (j+1)*s.size]
	}
	var leaves [maxLeaves]byte
	if sel.Canonical {
		return ChainProof{
			Canonical:     true,
			Index:         -1,
			Intermediates: inter,
			RepRoot:       mht.Root(&b, s.leaves(leaves[:0])).Clone(),
		}, nil
	}
	_, path := mht.RootPath(&b, s.leaves(leaves[:0]), sel.Index)
	return ChainProof{
		Canonical:     false,
		Index:         sel.Index,
		Intermediates: inter,
		CanonDigest:   s.canonDigest(&b, nil),
		RepPath:       path,
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
