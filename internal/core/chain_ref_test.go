package core

import (
	"fmt"

	"vcqr/internal/basep"
	"vcqr/internal/hashx"
	"vcqr/internal/paper/baseline/merkle"
)

// This file keeps the chain-side construction as it stood before a side
// was hashed once — full 2B-step digit chains, one digest per preferred
// representation over basep.Preferred, and a merkle.Tree for the root and
// the audit path — as the reference the differential tests and
// FuzzChainSide hold chain.go to, byte for byte.

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
	repTree  *merkle.Tree
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
	tree := merkle.BuildFromDigests(h, leaves)
	return &chainSide{
		canon:    canon,
		canonDig: canonDig,
		repTree:  tree,
		Combined: combineChain(&b, nil, canonDig, tree.Root()),
	}, nil
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
