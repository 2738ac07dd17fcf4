// Package mht implements the Merkle hash tree used in three places by the
// scheme of Pang et al. (SIGMOD 2005):
//
//   - the per-record tree over attribute values, MHT(r.A) in formula (3),
//     which lets the publisher substitute digests for projected-out or
//     access-controlled attributes;
//   - the small tree over the m preferred non-canonical representations of
//     delta_t (Figures 7 and 8), whose root is folded into g(r);
//   - the whole-table tree of the Devanbu et al. baseline, including the
//     contiguous-range verification object that scheme ships to users.
//
// Trees are padded to a power of two with a fixed padding digest so that
// every leaf has a well-defined audit path and point updates are O(log n).
package mht

import (
	"fmt"
	"math/bits"

	"vcqr/internal/hashx"
)

// Tree is a Merkle hash tree over a fixed number of leaves. Leaves are
// addressed by their original index (before padding).
type Tree struct {
	h      *hashx.Hasher
	n      int              // number of real leaves
	width  int              // padded width (power of two, >= 1)
	levels [][]hashx.Digest // levels[0] = padded leaf digests, last = root
}

// padWide is the digest stored in padding positions, at full width (a
// Hasher's own is its prefix). It is a constant, publicly-computable
// value, so padding adds no trust assumptions.
var padWide = hashx.NewSize(hashx.MaxSize).Leaf([]byte("mht/pad"))

// nextPow2 returns the smallest power of two >= n (and >= 1).
func nextPow2(n int) int {
	w := 1
	for w < n {
		w <<= 1
	}
	return w
}

// Build constructs a tree over the given leaf data; each leaf is hashed
// with the Hasher's leaf tag first.
func Build(h *hashx.Hasher, leaves [][]byte) *Tree {
	digests := make([]hashx.Digest, len(leaves))
	for i, l := range leaves {
		digests[i] = h.Leaf(l)
	}
	return BuildFromDigests(h, digests)
}

// BuildFromDigests constructs a tree over precomputed leaf digests. The
// digest slice is not retained; an empty tree (zero leaves) is legal and
// has the padding digest as its root.
func BuildFromDigests(h *hashx.Hasher, leaves []hashx.Digest) *Tree {
	b := h.Batch()
	defer b.Done()
	n := len(leaves)
	width := nextPow2(n)
	level0 := make([]hashx.Digest, width)
	pad := b.Const(padWide)
	for i := 0; i < width; i++ {
		if i < n {
			level0[i] = leaves[i].Clone()
		} else {
			level0[i] = pad
		}
	}
	t := &Tree{h: h, n: n, width: width}
	t.levels = append(t.levels, level0)
	for w := width; w > 1; w /= 2 {
		prev := t.levels[len(t.levels)-1]
		next := make([]hashx.Digest, w/2)
		for i := range next {
			next[i] = b.Node(nil, prev[2*i], prev[2*i+1])
		}
		t.levels = append(t.levels, next)
	}
	return t
}

// Root folds leaf digests laid end to end in leaves into the root that
// BuildFromDigests(...).Root() reports for them, pairing in place: no
// tree, no garbage when leaves has room for the padded width (it grows
// like any append otherwise). The result aliases leaves.
func Root(b *hashx.Batch, leaves []byte) hashx.Digest {
	root, _ := RootPath(b, leaves, -1)
	return root
}

// RootPath folds leaves as Root does and, in the same pass, records leaf
// i's audit path — the one BuildFromDigests(...).Path(i) reports: each
// level's sibling of the path node is copied out before that level is
// paired over. The siblings share one fresh block; a negative i asks for
// the root alone. The root aliases leaves.
func RootPath(b *hashx.Batch, leaves []byte, i int) (hashx.Digest, []PathElem) {
	size := b.Size()
	pad := b.Const(padWide)
	n := len(leaves) / size
	if i >= n {
		panic(fmt.Sprintf("mht: leaf index %d out of range [0,%d)", i, n))
	}
	width := nextPow2(n)
	for k := n; k < width; k++ {
		leaves = append(leaves, pad...)
	}
	var (
		path []PathElem
		sibs []byte
	)
	if i >= 0 && width > 1 {
		depth := bits.TrailingZeros(uint(width))
		path = make([]PathElem, 0, depth)
		sibs = make([]byte, 0, depth*size)
	}
	for w := width / 2; w >= 1; w /= 2 {
		if path != nil {
			sib := i ^ 1
			sibs = append(sibs, leaves[sib*size:(sib+1)*size]...)
			path = append(path, PathElem{Sibling: sibs[len(sibs)-size : len(sibs) : len(sibs)], Right: sib > i})
			i /= 2
		}
		for k := 0; k < w; k++ {
			at := 2 * k * size
			b.Node(leaves[k*size:k*size], leaves[at:at+size], leaves[at+size:at+2*size])
		}
	}
	return leaves[:size:size], path
}

// Len returns the number of real (unpadded) leaves.
func (t *Tree) Len() int { return t.n }

// Root returns the root digest.
func (t *Tree) Root() hashx.Digest { return t.levels[len(t.levels)-1][0] }

// Leaf returns the digest of leaf i.
func (t *Tree) Leaf(i int) hashx.Digest {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("mht: leaf index %d out of range [0,%d)", i, t.n))
	}
	return t.levels[0][i]
}

// PathElem is one step of an audit path: the sibling digest and whether
// that sibling sits to the right of the path node.
type PathElem struct {
	Sibling hashx.Digest
	Right   bool
}

// Path returns the audit path for leaf i: the sibling digests from leaf
// level up to (but excluding) the root. Combining the leaf digest with the
// path reproduces the root; this is the VO of Section 2.1.
func (t *Tree) Path(i int) []PathElem {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("mht: leaf index %d out of range [0,%d)", i, t.n))
	}
	var path []PathElem
	idx := i
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		sib := idx ^ 1
		path = append(path, PathElem{
			Sibling: t.levels[lvl][sib].Clone(),
			Right:   sib > idx,
		})
		idx /= 2
	}
	return path
}

// RootFromPath recomputes the root implied by a leaf digest and its audit
// path. The caller compares the result against a trusted root.
func RootFromPath(h *hashx.Hasher, leaf hashx.Digest, path []PathElem) hashx.Digest {
	d := leaf
	for _, e := range path {
		if e.Right {
			d = h.Node(d, e.Sibling)
		} else {
			d = h.Node(e.Sibling, d)
		}
	}
	return d
}

// Update replaces leaf i's digest and recomputes the O(log n) path to the
// root, returning the number of node recomputations performed (used by the
// Section 6.3 update-cost experiment).
func (t *Tree) Update(i int, leaf hashx.Digest) int {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("mht: leaf index %d out of range [0,%d)", i, t.n))
	}
	t.levels[0][i] = leaf.Clone()
	idx := i
	work := 0
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		parent := idx / 2
		t.levels[lvl+1][parent] = t.h.Node(t.levels[lvl][parent*2], t.levels[lvl][parent*2+1])
		idx = parent
		work++
	}
	return work
}

// RangeProof is the verification object for a contiguous leaf interval
// [Lo, Hi] (inclusive): the digests of the maximal subtrees disjoint from
// the interval, in deterministic left-to-right traversal order. This is
// the structure the Devanbu baseline ships alongside an expanded query
// result.
type RangeProof struct {
	Lo, Hi  int
	Total   int // number of real leaves in the tree
	Digests []hashx.Digest
}

// ProveRange builds the RangeProof for leaves [lo, hi] inclusive.
func (t *Tree) ProveRange(lo, hi int) (RangeProof, error) {
	if lo < 0 || hi >= t.n || lo > hi {
		return RangeProof{}, fmt.Errorf("mht: range [%d,%d] out of bounds [0,%d)", lo, hi, t.n)
	}
	p := RangeProof{Lo: lo, Hi: hi, Total: t.n}
	t.collectRange(len(t.levels)-1, 0, lo, hi, &p.Digests)
	return p, nil
}

// collectRange walks the node at (level, idx) covering leaves
// [idx*2^level, (idx+1)*2^level); disjoint subtrees contribute their digest,
// intersecting interior nodes recurse, covered leaves contribute nothing.
func (t *Tree) collectRange(level, idx, lo, hi int, out *[]hashx.Digest) {
	span := 1 << level
	start := idx * span
	end := start + span - 1
	if end < lo || start > hi {
		*out = append(*out, t.levels[level][idx].Clone())
		return
	}
	if level == 0 {
		return // covered leaf: the verifier supplies it
	}
	if start >= lo && end <= hi {
		// Fully covered interior node: verifier rebuilds it from leaves.
		t.collectRange(level-1, idx*2, lo, hi, out)
		t.collectRange(level-1, idx*2+1, lo, hi, out)
		return
	}
	t.collectRange(level-1, idx*2, lo, hi, out)
	t.collectRange(level-1, idx*2+1, lo, hi, out)
}

// VerifyRange recomputes the root from the claimed contiguous leaf digests
// and the proof, and compares it to root. leaves must contain exactly
// Hi-Lo+1 digests.
func VerifyRange(h *hashx.Hasher, p RangeProof, leaves []hashx.Digest, root hashx.Digest) bool {
	if p.Lo < 0 || p.Lo > p.Hi || p.Hi >= p.Total || len(leaves) != p.Hi-p.Lo+1 {
		return false
	}
	width := nextPow2(p.Total)
	levelCount := 1
	for w := width; w > 1; w /= 2 {
		levelCount++
	}
	cursor := 0
	d, ok := rebuildRange(h, levelCount-1, 0, p, leaves, &cursor)
	if !ok || cursor != len(p.Digests) {
		return false
	}
	return d.Equal(root)
}

// rebuildRange mirrors collectRange, consuming proof digests for disjoint
// subtrees and verifier-known leaf digests for covered leaves.
func rebuildRange(h *hashx.Hasher, level, idx int, p RangeProof, leaves []hashx.Digest, cursor *int) (hashx.Digest, bool) {
	span := 1 << level
	start := idx * span
	end := start + span - 1
	if end < p.Lo || start > p.Hi {
		if *cursor >= len(p.Digests) {
			return nil, false
		}
		d := p.Digests[*cursor]
		*cursor++
		return d, true
	}
	if level == 0 {
		return leaves[start-p.Lo], true
	}
	l, ok := rebuildRange(h, level-1, idx*2, p, leaves, cursor)
	if !ok {
		return nil, false
	}
	r, ok := rebuildRange(h, level-1, idx*2+1, p, leaves, cursor)
	if !ok {
		return nil, false
	}
	return h.Node(l, r), true
}

// ProofSize returns the number of digests in the proof; multiplied by the
// digest width this is the VO byte cost used in the size experiments.
func (p RangeProof) ProofSize() int { return len(p.Digests) }
