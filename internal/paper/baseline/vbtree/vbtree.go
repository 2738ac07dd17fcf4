// Package vbtree implements a simplified VB-tree in the spirit of Pang and
// Tan, "Authenticating Query Results in Edge Computing" (ICDE 2004) — the
// second related-work baseline of Section 2.3.
//
// Every node digest of a binary index over the tuples is individually
// signed by the owner, so a verification object only needs the smallest
// signed subtree enveloping the query result (no path to the root), and
// the tree is built from attribute digests so projection works. The
// crucial property Pang et al. (SIGMOD 2005) point out — and that the
// tests demonstrate — is that the VB-tree authenticates *values* but does
// NOT verify completeness: a publisher can drop boundary tuples and prove
// a smaller enveloping subtree instead.
package vbtree

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
	ErrSignature = errors.New("vbtree: node signature invalid")
	ErrProof     = errors.New("vbtree: tuples do not reproduce the signed node digest")
	ErrShape     = errors.New("vbtree: malformed proof")
)

// SignedIndex is a binary index with a signature per node.
type SignedIndex struct {
	Tuples []relation.Tuple
	tree   *merkle.Tree
	// sigs[level][idx] signs the node digest at that position; sigs[0]
	// spans the padded leaf count.
	sigs [][]sig.Signature
}

// encodeTuple hashes the whole tuple into its leaf.
func encodeTuple(t relation.Tuple) []byte {
	var buf bytes.Buffer
	buf.Write(hashx.U64(t.Key))
	buf.Write(hashx.U64(t.RowID))
	for _, a := range t.Attrs {
		buf.Write(a.Encode())
	}
	return buf.Bytes()
}

// Build constructs the index and signs every node. Signing cost is O(n)
// signatures — the VB-tree's heavy build-time price, which the paper's
// update analysis (Section 6.3) also counts against digest hierarchies.
func Build(h *hashx.Hasher, key *sig.PrivateKey, rel *relation.Relation) (*SignedIndex, error) {
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	si := &SignedIndex{}
	si.Tuples = make([]relation.Tuple, rel.Len())
	leaves := make([][]byte, rel.Len())
	for i, t := range rel.Tuples {
		si.Tuples[i] = t.Clone()
		leaves[i] = encodeTuple(t)
	}
	si.tree = merkle.Build(h, leaves)
	// Sign every node at every level.
	for _, level := range si.tree.Levels() {
		row := make([]sig.Signature, len(level))
		for i, d := range level {
			row[i] = key.Sign(d)
		}
		si.sigs = append(si.sigs, row)
	}
	return si, nil
}

// QueryResult ships the tuples, the enveloping node coordinates, its
// signature, and the digests of subtree leaves outside the result.
type QueryResult struct {
	Lo, Hi uint64
	Tuples []relation.Tuple
	// Level, Index identify the signed enveloping node.
	Level, Index int
	NodeSig      sig.Signature
	// Fill holds digests for subtree leaf positions outside the result,
	// in position order.
	Fill []hashx.Digest
}

// Query answers [lo, hi] with the smallest signed enveloping subtree.
func (si *SignedIndex) Query(lo, hi uint64) (*QueryResult, error) {
	a := sort.Search(len(si.Tuples), func(i int) bool { return si.Tuples[i].Key >= lo })
	b := sort.Search(len(si.Tuples), func(i int) bool { return si.Tuples[i].Key > hi })
	return si.proveWindow(lo, hi, a, b)
}

// proveWindow builds the proof for tuple window [a, b); exported behaviour
// for the completeness-gap demonstration lives in QueryTruncated.
func (si *SignedIndex) proveWindow(lo, hi uint64, a, b int) (*QueryResult, error) {
	// The smallest enveloping node is the lowest level at which a and b-1
	// fall under the same node. An empty window degenerates to a single
	// leaf (clamped into the padded width).
	level := 0
	idx := a
	if b > a {
		for (a >> level) != ((b - 1) >> level) {
			level++
		}
		idx = a >> level
	} else if width := len(si.sigs[0]); idx >= width {
		idx = width - 1
	}
	res := &QueryResult{Lo: lo, Hi: hi, Level: level, Index: idx, NodeSig: si.sigs[level][idx].Clone()}
	span := 1 << level
	start := idx * span
	leaves := si.tree.Levels()[0]
	for i := start; i < start+span; i++ {
		if i >= a && i < b {
			res.Tuples = append(res.Tuples, si.Tuples[i].Clone())
			continue
		}
		res.Fill = append(res.Fill, leaves[i].Clone())
	}
	return res, nil
}

// QueryTruncated mimics a cheating publisher: it serves [lo, hi] but
// silently drops the last qualifying tuple, enveloping only the rest.
// The result still VERIFIES — the completeness gap the SIGMOD 2005 paper
// addresses.
func (si *SignedIndex) QueryTruncated(lo, hi uint64) (*QueryResult, error) {
	a := sort.Search(len(si.Tuples), func(i int) bool { return si.Tuples[i].Key >= lo })
	b := sort.Search(len(si.Tuples), func(i int) bool { return si.Tuples[i].Key > hi })
	if b-a < 1 {
		return nil, fmt.Errorf("vbtree: nothing to truncate in [%d, %d]", lo, hi)
	}
	return si.proveWindow(lo, hi, a, b-1)
}

// Verify checks authenticity of the returned tuples: they must reproduce
// the signed enveloping-node digest. Note what is NOT checked — and
// cannot be, in this scheme: that the window covers the whole query range.
func Verify(h *hashx.Hasher, pub *sig.PublicKey, res *QueryResult) ([]relation.Tuple, error) {
	span := 1 << res.Level
	if len(res.Tuples)+len(res.Fill) != span {
		return nil, fmt.Errorf("%w: %d tuples + %d fill != %d", ErrShape, len(res.Tuples), len(res.Fill), span)
	}
	for _, t := range res.Tuples {
		if t.Key < res.Lo || t.Key > res.Hi {
			return nil, fmt.Errorf("%w: tuple key %d outside [%d, %d]", ErrShape, t.Key, res.Lo, res.Hi)
		}
	}
	// Reassemble the subtree: result tuples occupy a contiguous window;
	// fill digests cover the rest, in order. The publisher tells us where
	// the window starts implicitly by how many leading fill digests there
	// are — recompute both splits and accept either (left fill count is
	// determined by the smallest key position).
	for lead := 0; lead <= len(res.Fill); lead++ {
		digs := make([]hashx.Digest, 0, span)
		digs = append(digs, res.Fill[:lead]...)
		for _, t := range res.Tuples {
			digs = append(digs, h.Leaf(encodeTuple(t)))
		}
		digs = append(digs, res.Fill[lead:]...)
		d := digs
		for w := span; w > 1; w /= 2 {
			next := make([]hashx.Digest, w/2)
			for i := range next {
				next[i] = h.Node(d[2*i], d[2*i+1])
			}
			d = next
		}
		if pub.Verify(d[0], res.NodeSig) {
			out := make([]relation.Tuple, len(res.Tuples))
			copy(out, res.Tuples)
			return out, nil
		}
	}
	return nil, ErrProof
}
