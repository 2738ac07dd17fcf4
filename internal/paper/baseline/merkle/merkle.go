// Package merkle is the whole-table Merkle hash tree of the Devanbu et
// al. baseline (Section 2.3), which the VB-tree baseline builds too: a
// tree kept level by level over a relation's tuples, with point updates
// in O(log n) and the contiguous-range verification object that scheme
// ships to users.
//
// The tree is the one internal/mht folds in place: the same padding to a
// power of two with the same padding digest, the same node hash, so its
// root and audit paths are mht.Root's and mht.RootPath's for the same
// leaves. The tests pin that, and the signed relation's own trees (the
// attribute tree and the representation tree of formula (3)) use the
// fold, never this tree.
package merkle

import (
	"fmt"

	"vcqr/internal/hashx"
	"vcqr/internal/mht"
)

// Tree is a Merkle hash tree over a fixed number of leaves. Leaves are
// addressed by their original index (before padding).
type Tree struct {
	h      *hashx.Hasher
	n      int              // number of real leaves
	width  int              // padded width (power of two, >= 1)
	levels [][]hashx.Digest // levels[0] = padded leaf digests, last = root
}

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
	pad := mht.Root(&b, nil) // the padding digest: the root of no leaves
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

// Len returns the number of real (unpadded) leaves.
func (t *Tree) Len() int { return t.n }

// Root returns the root digest.
func (t *Tree) Root() hashx.Digest { return t.levels[len(t.levels)-1][0] }

// Levels returns the tree's digests level by level: the padded leaves
// first, the root's one-element level last. Callers must not modify them.
func (t *Tree) Levels() [][]hashx.Digest { return t.levels }

// Leaf returns the digest of leaf i.
func (t *Tree) Leaf(i int) hashx.Digest {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("mht: leaf index %d out of range [0,%d)", i, t.n))
	}
	return t.levels[0][i]
}

// Path returns the audit path for leaf i: the sibling digests from leaf
// level up to (but excluding) the root. Combining the leaf digest with the
// path reproduces the root; this is the VO of Section 2.1.
func (t *Tree) Path(i int) []mht.PathElem {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("mht: leaf index %d out of range [0,%d)", i, t.n))
	}
	var path []mht.PathElem
	idx := i
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		sib := idx ^ 1
		path = append(path, mht.PathElem{
			Sibling: t.levels[lvl][sib].Clone(),
			Right:   sib > idx,
		})
		idx /= 2
	}
	return path
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
