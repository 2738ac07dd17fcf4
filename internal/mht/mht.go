// Package mht computes the Merkle hash trees of the scheme of Pang et al.
// (SIGMOD 2005), both of them small and per record:
//
//   - the tree over attribute values, MHT(r.A) in formula (3), which lets
//     the publisher substitute digests for projected-out or
//     access-controlled attributes;
//   - the tree over the m preferred non-canonical representations of
//     delta_t (Figures 7 and 8), whose root is folded into g(r).
//
// No tree is kept: Root and RootPath fold the leaves in place into the
// root and one leaf's audit path, and RootFromPath is the user's side.
// Trees are padded to a power of two with a fixed padding digest so that
// every leaf has a well-defined audit path.
package mht

import (
	"fmt"
	"math/bits"

	"vcqr/internal/hashx"
)

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

// Root folds leaf digests laid end to end in leaves into the root of the
// padded tree over them, pairing in place: no tree, no garbage when
// leaves has room for the padded width (it grows like any append
// otherwise). The result aliases leaves.
func Root(b *hashx.Batch, leaves []byte) hashx.Digest {
	root, _ := RootPath(b, leaves, -1)
	return root
}

// RootPath folds leaves as Root does and, in the same pass, records leaf
// i's audit path: the sibling digests from the leaf level up to (but
// excluding) the root, which with the leaf digest reproduce the root
// (RootFromPath; the VO of Section 2.1). Each level's sibling of the path
// node is copied out before that level is paired over. The siblings
// share one fresh block; a negative i asks for the root alone. The root
// aliases leaves.
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

// PathElem is one step of an audit path: the sibling digest and whether
// that sibling sits to the right of the path node.
type PathElem struct {
	Sibling hashx.Digest
	Right   bool
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
