// Package btree implements the B+-tree the paper proposes as the storage
// structure for the signature chain (Section 6.3): "our extended scheme
// can be incorporated into the B+-tree, by storing the signatures for each
// record along with its pointer in the leaf node".
//
// The point of this substrate is the update-cost argument: a record update
// invalidates exactly three signatures — its own and its two neighbours' —
// which is "conceptually similar to updating a doubly-linked list". With
// hundreds of entries per node, the three affected signatures usually live
// in ONE leaf, and in the worst case span two adjoining leaves; no path to
// the root is touched, unlike Merkle-hash-tree schemes whose every update
// propagates to the root digest. LeafSpan measures exactly that.
package btree

import (
	"errors"
	"fmt"
)

// DefaultOrder is the default fan-out. The paper notes "a B+-tree node
// typically contains hundreds of entries"; 128 keeps tests brisk while
// preserving the multi-entry-per-leaf property the argument rests on.
const DefaultOrder = 128

// Errors.
var (
	ErrNotFound = errors.New("btree: entry not found")
	ErrOrder    = errors.New("btree: order must be >= 3")
)

// Entry is one leaf record: the composite key (Key, RowID) and the
// record's chained signature.
type Entry struct {
	Key   uint64
	RowID uint64
	Sig   []byte
}

func entryLess(aK, aR, bK, bR uint64) bool {
	return aK < bK || (aK == bK && aR < bR)
}

// leaf and internal nodes.
type node struct {
	leaf     bool
	parent   *node
	entries  []Entry  // leaf payload
	keys     []uint64 // internal separator keys
	rows     []uint64 // rowid part of separators
	children []*node
	next     *node // leaf sibling chain
	prev     *node
}

// Tree is a B+-tree over (Key, RowID) storing signatures in its leaves.
type Tree struct {
	order int
	root  *node
	size  int
}

// New creates a tree with the given order (max children per internal
// node, max entries per leaf). Order 0 selects DefaultOrder.
func New(order int) (*Tree, error) {
	if order == 0 {
		order = DefaultOrder
	}
	if order < 3 {
		return nil, ErrOrder
	}
	return &Tree{order: order, root: &node{leaf: true}}, nil
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 = only a root leaf).
func (t *Tree) Height() int {
	h, n := 1, t.root
	for !n.leaf {
		h++
		n = n.children[0]
	}
	return h
}

// findLeaf descends to the leaf that owns (key, rowID).
func (t *Tree) findLeaf(key, rowID uint64) *node {
	n := t.root
	for !n.leaf {
		i := 0
		for i < len(n.keys) && !entryLess(key, rowID, n.keys[i], n.rows[i]) {
			i++
		}
		n = n.children[i]
	}
	return n
}

// position returns the index in leaf where (key,rowID) is or would be.
func position(l *node, key, rowID uint64) int {
	i := 0
	for i < len(l.entries) && entryLess(l.entries[i].Key, l.entries[i].RowID, key, rowID) {
		i++
	}
	return i
}

// Insert adds an entry; duplicate (Key, RowID) is an error.
func (t *Tree) Insert(e Entry) error {
	l := t.findLeaf(e.Key, e.RowID)
	i := position(l, e.Key, e.RowID)
	if i < len(l.entries) && l.entries[i].Key == e.Key && l.entries[i].RowID == e.RowID {
		return fmt.Errorf("btree: duplicate entry (%d, %d)", e.Key, e.RowID)
	}
	l.entries = append(l.entries, Entry{})
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = e
	t.size++
	if len(l.entries) > t.order {
		t.splitLeaf(l)
	}
	return nil
}

// splitLeaf splits an over-full leaf and propagates upward.
func (t *Tree) splitLeaf(l *node) {
	mid := len(l.entries) / 2
	right := &node{leaf: true, entries: append([]Entry(nil), l.entries[mid:]...)}
	l.entries = l.entries[:mid]
	right.next = l.next
	if right.next != nil {
		right.next.prev = right
	}
	right.prev = l
	l.next = right
	sepK, sepR := right.entries[0].Key, right.entries[0].RowID
	t.insertInParent(l, sepK, sepR, right)
}

// insertInParent links a new right sibling after left under their parent.
func (t *Tree) insertInParent(left *node, sepK, sepR uint64, right *node) {
	if left == t.root {
		t.root = &node{
			keys:     []uint64{sepK},
			rows:     []uint64{sepR},
			children: []*node{left, right},
		}
		left.parent = t.root
		right.parent = t.root
		return
	}
	p := left.parent
	right.parent = p
	i := 0
	for i < len(p.children) && p.children[i] != left {
		i++
	}
	p.keys = append(p.keys, 0)
	p.rows = append(p.rows, 0)
	copy(p.keys[i+1:], p.keys[i:])
	copy(p.rows[i+1:], p.rows[i:])
	p.keys[i] = sepK
	p.rows[i] = sepR
	p.children = append(p.children, nil)
	copy(p.children[i+2:], p.children[i+1:])
	p.children[i+1] = right
	if len(p.children) > t.order {
		t.splitInternal(p)
	}
}

// splitInternal splits an over-full internal node.
func (t *Tree) splitInternal(n *node) {
	mid := len(n.keys) / 2
	sepK, sepR := n.keys[mid], n.rows[mid]
	right := &node{
		keys:     append([]uint64(nil), n.keys[mid+1:]...),
		rows:     append([]uint64(nil), n.rows[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.rows = n.rows[:mid]
	n.children = n.children[:mid+1]
	for _, c := range right.children {
		c.parent = right
	}
	t.insertInParent(n, sepK, sepR, right)
}

// Get returns the signature stored for (key, rowID).
func (t *Tree) Get(key, rowID uint64) ([]byte, error) {
	l := t.findLeaf(key, rowID)
	i := position(l, key, rowID)
	if i < len(l.entries) && l.entries[i].Key == key && l.entries[i].RowID == rowID {
		return l.entries[i].Sig, nil
	}
	return nil, ErrNotFound
}

// UpdateSig replaces the signature of (key, rowID) in place: the leaf-local
// write at the heart of the Section 6.3 argument.
func (t *Tree) UpdateSig(key, rowID uint64, sig []byte) error {
	l := t.findLeaf(key, rowID)
	i := position(l, key, rowID)
	if i < len(l.entries) && l.entries[i].Key == key && l.entries[i].RowID == rowID {
		l.entries[i].Sig = sig
		return nil
	}
	return ErrNotFound
}

// Delete removes (key, rowID). Underflowed leaves are merged with a
// sibling when possible; the tree stays balanced enough for correctness
// (search/scan) though it does not rebalance aggressively — deletions are
// rare relative to lookups in the published-database workload.
func (t *Tree) Delete(key, rowID uint64) error {
	l := t.findLeaf(key, rowID)
	i := position(l, key, rowID)
	if i >= len(l.entries) || l.entries[i].Key != key || l.entries[i].RowID != rowID {
		return ErrNotFound
	}
	l.entries = append(l.entries[:i], l.entries[i+1:]...)
	t.size--
	if len(l.entries) == 0 && l != t.root {
		t.removeLeaf(l)
	}
	return nil
}

// removeLeaf unlinks an empty node from its parent and, for leaves, the
// sibling chain. Empty parents are removed recursively; a root with a
// single internal child collapses.
func (t *Tree) removeLeaf(l *node) {
	if l.leaf {
		if l.prev != nil {
			l.prev.next = l.next
		}
		if l.next != nil {
			l.next.prev = l.prev
		}
	}
	p := l.parent
	if p == nil {
		return
	}
	i := 0
	for i < len(p.children) && p.children[i] != l {
		i++
	}
	p.children = append(p.children[:i], p.children[i+1:]...)
	sep := i
	if sep >= len(p.keys) && len(p.keys) > 0 {
		sep = len(p.keys) - 1
	}
	if len(p.keys) > 0 {
		p.keys = append(p.keys[:sep], p.keys[sep+1:]...)
		p.rows = append(p.rows[:sep], p.rows[sep+1:]...)
	}
	switch {
	case len(p.children) == 0:
		t.removeLeaf(p)
	case len(p.children) == 1 && p == t.root:
		t.root = p.children[0]
		t.root.parent = nil
	}
}

// Range calls fn for every entry with lo <= Key <= hi, in order; fn
// returning false stops the scan.
func (t *Tree) Range(lo, hi uint64, fn func(Entry) bool) {
	l := t.findLeaf(lo, 0)
	for l != nil {
		for _, e := range l.entries {
			if e.Key < lo {
				continue
			}
			if e.Key > hi {
				return
			}
			if !fn(e) {
				return
			}
		}
		l = l.next
	}
}

// LeafSpan returns how many distinct leaf nodes hold (key,rowID) and its
// chain neighbours (the previous and next entries in key order) — the
// quantity Section 6.3 argues is 1 most of the time and at most 2.
func (t *Tree) LeafSpan(key, rowID uint64) (int, error) {
	l := t.findLeaf(key, rowID)
	i := position(l, key, rowID)
	if i >= len(l.entries) || l.entries[i].Key != key || l.entries[i].RowID != rowID {
		return 0, ErrNotFound
	}
	leaves := map[*node]bool{l: true}
	if i == 0 && l.prev != nil {
		leaves[l.prev] = true
	}
	if i == len(l.entries)-1 && l.next != nil {
		leaves[l.next] = true
	}
	return len(leaves), nil
}

// Validate checks structural invariants: ordering within and across
// leaves, separator consistency, and the size count.
func (t *Tree) Validate() error {
	count := 0
	var prevK, prevR uint64
	first := true
	l := t.leftmostLeaf()
	for l != nil {
		for _, e := range l.entries {
			if !first && !entryLess(prevK, prevR, e.Key, e.RowID) {
				return fmt.Errorf("btree: entries out of order at (%d,%d)", e.Key, e.RowID)
			}
			prevK, prevR = e.Key, e.RowID
			first = false
			count++
		}
		l = l.next
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d != counted %d", t.size, count)
	}
	return nil
}

func (t *Tree) leftmostLeaf() *node {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	return n
}
