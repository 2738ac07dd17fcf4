package sig

import (
	"fmt"
	"math/big"
	"sort"
)

// ProductTree is a persistent (immutable, path-copying) order-statistic
// tree over values in Z_N, where every node additionally stores the
// product of its subtree's values mod N. It is the data structure behind
// the condensed-RSA fast path:
//
//   - Range(i, j) returns prod of leaves [i, j) mod N in O(log n)
//     modular multiplications instead of the O(j-i) a naive fold costs —
//     the move that takes per-query aggregation from O(|Q|) to O(log n).
//   - UpdateMany/Insert/Delete return a NEW tree that shares all
//     untouched nodes with the receiver, allocating only the spines that
//     changed. The old tree stays valid forever, which is exactly the
//     copy-on-write epoch discipline of internal/server: a delta cutover
//     derives the next epoch's tree from the current one in O(log n)
//     multiplications while in-flight queries keep reading the old one,
//     lock-free.
//
// Leaves are positional (rank order, no keys): leaf i of a relation's
// tree corresponds to entry i of its record sequence, so record inserts
// and deletes map to positional Insert/Delete. Balance is maintained as
// a weight-balanced tree (Adams' variant with Δ=3, Γ=2, weights counted
// as size+1), giving height O(log n) under any update sequence.
//
// Each leaf may carry an opaque tag — the FDH tree tags leaves with the
// signed digest the cached FDH value was derived from, so consumers can
// detect a stale cache entry instead of trusting it (core.AggIndex).
//
// Values are never mutated after insertion and returned products are
// fresh allocations, so a tree (and every tree derived from it) is safe
// for concurrent readers.
type ProductTree struct {
	p    *PublicKey
	root *ptNode
}

// ptNode is one immutable tree node: a leaf value at an in-order
// position, the subtree size, and the subtree product mod N.
type ptNode struct {
	left, right *ptNode
	size        int
	val         *big.Int
	tag         []byte
	prod        *big.Int
}

func (n *ptNode) sz() int {
	if n == nil {
		return 0
	}
	return n.size
}

// weight is size+1, the Adams convention that keeps the balance
// conditions division-free and defined on empty subtrees.
func (n *ptNode) weight() int { return n.sz() + 1 }

// wbDelta and wbGamma are the (Δ, Γ) = (3, 2) weight-balance parameters,
// a pair proven to preserve balance under single-pass insert and delete
// rebalancing (Hirai & Yamamoto 2011).
const (
	wbDelta = 3
	wbGamma = 2
)

// mkNode builds an internal node, computing size and product: one
// product per child, each reduced by the key's Barrett constant before
// the next, since the reduction's bound covers a product of two residues
// and not of three.
func (t *ProductTree) mkNode(l *ptNode, val *big.Int, tag []byte, r *ptNode) *ptNode {
	n := &ptNode{left: l, right: r, size: l.sz() + r.sz() + 1, val: val, tag: tag}
	red, x := t.p.barrett(), expPool.Get().(*expScratch)
	prod := new(big.Int)
	x.t.Set(val)
	if l != nil {
		x.t.Mul(val, l.prod)
	}
	red.reduce(prod, &x.t, &x.q, &x.u)
	if r != nil {
		x.t.Mul(prod, r.prod)
		red.reduce(prod, &x.t, &x.q, &x.u)
	}
	expPool.Put(x)
	n.prod = prod
	return n
}

// balance rebuilds a node whose children differ by at most one
// insertion/deletion from a balanced state, restoring the weight
// invariant with a single or double rotation where needed.
func (t *ProductTree) balance(l *ptNode, val *big.Int, tag []byte, r *ptNode) *ptNode {
	switch {
	case l.weight()+r.weight() <= 2:
		// Both children empty (or one singleton): trivially balanced.
		return t.mkNode(l, val, tag, r)
	case r.weight() > wbDelta*l.weight():
		// Right-heavy.
		if r.left.weight() < wbGamma*r.right.weight() {
			// Single left rotation.
			return t.mkNode(t.mkNode(l, val, tag, r.left), r.val, r.tag, r.right)
		}
		// Double rotation through r.left.
		rl := r.left
		return t.mkNode(
			t.mkNode(l, val, tag, rl.left),
			rl.val, rl.tag,
			t.mkNode(rl.right, r.val, r.tag, r.right),
		)
	case l.weight() > wbDelta*r.weight():
		// Left-heavy.
		if l.right.weight() < wbGamma*l.left.weight() {
			// Single right rotation.
			return t.mkNode(l.left, l.val, l.tag, t.mkNode(l.right, val, tag, r))
		}
		// Double rotation through l.right.
		lr := l.right
		return t.mkNode(
			t.mkNode(l.left, l.val, l.tag, lr.left),
			lr.val, lr.tag,
			t.mkNode(lr.right, val, tag, r),
		)
	default:
		return t.mkNode(l, val, tag, r)
	}
}

// NewProductTree builds a tree over the given leaf values (already
// reduced mod N; the tree aliases them, callers must not mutate) with
// optional per-leaf tags (tags may be nil, or hold nil entries). Cost is
// O(n) multiplications — paid once at publish/snapshot time.
func (p *PublicKey) NewProductTree(vals []*big.Int, tags [][]byte) *ProductTree {
	t := &ProductTree{p: p}
	tag := func(i int) []byte {
		if tags == nil {
			return nil
		}
		return tags[i]
	}
	var build func(lo, hi int) *ptNode
	build = func(lo, hi int) *ptNode {
		if lo >= hi {
			return nil
		}
		mid := lo + (hi-lo)/2
		return t.mkNode(build(lo, mid), vals[mid], tag(mid), build(mid+1, hi))
	}
	t.root = build(0, len(vals))
	return t
}

// NewSigTree builds a product tree whose leaves are the decoded
// signature values, in order — the σ-product tree of a signed relation.
func (p *PublicKey) NewSigTree(sigs []Signature) (*ProductTree, error) {
	vals := make([]*big.Int, len(sigs))
	for i, s := range sigs {
		v, err := decode(s, p)
		if err != nil {
			return nil, fmt.Errorf("leaf %d: %w", i, err)
		}
		vals[i] = v
	}
	return p.NewProductTree(vals, nil), nil
}

// Len returns the leaf count.
func (t *ProductTree) Len() int { return t.root.sz() }

// Key returns the verification key the tree's arithmetic is bound to.
func (t *ProductTree) Key() *PublicKey { return t.p }

// At returns leaf i's value and tag. The value must not be mutated.
func (t *ProductTree) At(i int) (*big.Int, []byte) {
	if i < 0 || i >= t.Len() {
		panic(fmt.Sprintf("sig: ProductTree.At(%d) with %d leaves", i, t.Len()))
	}
	n := t.root
	for {
		ls := n.left.sz()
		switch {
		case i < ls:
			n = n.left
		case i == ls:
			return n.val, n.tag
		default:
			n, i = n.right, i-ls-1
		}
	}
}

// Range returns prod of leaves [i, j) mod N as a fresh big.Int, in
// O(log n) multiplications. An empty range yields 1.
func (t *ProductTree) Range(i, j int) *big.Int {
	if i < 0 || j > t.Len() || i > j {
		panic(fmt.Sprintf("sig: ProductTree.Range(%d, %d) with %d leaves", i, j, t.Len()))
	}
	acc := big.NewInt(1)
	x := expPool.Get().(*expScratch)
	t.rangeProd(t.root, i, j, acc, t.p.barrett(), x)
	expPool.Put(x)
	return acc
}

// rangeProd folds the leaves [i, j) of n's subtree into acc, reducing
// after each fold by Barrett's reduction on x's scratch.
func (t *ProductTree) rangeProd(n *ptNode, i, j int, acc *big.Int, red *barrett, x *expScratch) {
	if n == nil || i >= n.size || j <= 0 || i >= j {
		return
	}
	if i <= 0 && j >= n.size {
		x.t.Mul(acc, n.prod)
		red.reduce(acc, &x.t, &x.q, &x.u)
		return
	}
	ls := n.left.sz()
	t.rangeProd(n.left, i, j, acc, red, x)
	if i <= ls && ls < j {
		x.t.Mul(acc, n.val)
		red.reduce(acc, &x.t, &x.q, &x.u)
	}
	t.rangeProd(n.right, i-ls-1, j-ls-1, acc, red, x)
}

// RangeSig returns the condensed signature over leaves [i, j) — the
// encoded Range product. Aggregating zero signatures is an error, as in
// Aggregate.
func (t *ProductTree) RangeSig(i, j int) (Signature, error) {
	if i >= j {
		return nil, ErrEmptyAggregate
	}
	return encode(t.Range(i, j), t.p.SigBytes()), nil
}

// UpdateMany returns a tree with leaf pos[k] replaced by vals[k] (and
// its tag by tags[k]; tags may be nil) for every k. pos must be strictly
// increasing. Each ancestor of a replaced leaf is rebuilt once, however
// many of its descendants change — a run of t adjacent leaves costs
// O(t + log n) new nodes, not t · O(log n). The receiver is unchanged.
func (t *ProductTree) UpdateMany(pos []int, vals []*big.Int, tags [][]byte) *ProductTree {
	if len(vals) != len(pos) || (tags != nil && len(tags) != len(pos)) {
		panic(fmt.Sprintf("sig: ProductTree.UpdateMany with %d positions, %d values, %d tags", len(pos), len(vals), len(tags)))
	}
	for k, i := range pos {
		if i < 0 || i >= t.Len() || (k > 0 && i <= pos[k-1]) {
			panic(fmt.Sprintf("sig: ProductTree.UpdateMany(%v) with %d leaves", pos, t.Len()))
		}
	}
	if len(pos) == 0 {
		return t
	}
	// up rebuilds n, whose leftmost leaf sits at position off, with the
	// replacements pos[lo:hi] — all of which fall inside n's subtree.
	var up func(n *ptNode, off, lo, hi int) *ptNode
	up = func(n *ptNode, off, lo, hi int) *ptNode {
		if lo == hi {
			return n
		}
		at := off + n.left.sz()
		mid := lo + sort.SearchInts(pos[lo:hi], at)
		val, tag, next := n.val, n.tag, mid
		if mid < hi && pos[mid] == at {
			val, tag, next = vals[mid], nil, mid+1
			if tags != nil {
				tag = tags[mid]
			}
		}
		return t.mkNode(up(n.left, off, lo, mid), val, tag, up(n.right, at+1, next, hi))
	}
	return &ProductTree{p: t.p, root: up(t.root, 0, 0, len(pos))}
}

// Insert returns a tree with a new leaf at position i (existing leaves
// at >= i shift right); 0 <= i <= Len. O(log n) new nodes.
func (t *ProductTree) Insert(i int, val *big.Int, tag []byte) *ProductTree {
	if i < 0 || i > t.Len() {
		panic(fmt.Sprintf("sig: ProductTree.Insert(%d) with %d leaves", i, t.Len()))
	}
	var ins func(n *ptNode, i int) *ptNode
	ins = func(n *ptNode, i int) *ptNode {
		if n == nil {
			return t.mkNode(nil, val, tag, nil)
		}
		ls := n.left.sz()
		if i <= ls {
			return t.balance(ins(n.left, i), n.val, n.tag, n.right)
		}
		return t.balance(n.left, n.val, n.tag, ins(n.right, i-ls-1))
	}
	return &ProductTree{p: t.p, root: ins(t.root, i)}
}

// Delete returns a tree with leaf i removed. O(log n) new nodes.
func (t *ProductTree) Delete(i int) *ProductTree {
	if i < 0 || i >= t.Len() {
		panic(fmt.Sprintf("sig: ProductTree.Delete(%d) with %d leaves", i, t.Len()))
	}
	var del func(n *ptNode, i int) *ptNode
	del = func(n *ptNode, i int) *ptNode {
		ls := n.left.sz()
		switch {
		case i < ls:
			return t.balance(del(n.left, i), n.val, n.tag, n.right)
		case i > ls:
			return t.balance(n.left, n.val, n.tag, del(n.right, i-ls-1))
		default:
			// Remove this node: glue the children by pulling the
			// successor (leftmost of the right subtree) up.
			if n.left == nil {
				return n.right
			}
			if n.right == nil {
				return n.left
			}
			succ := n.right
			for succ.left != nil {
				succ = succ.left
			}
			return t.balance(n.left, succ.val, succ.tag, del(n.right, 0))
		}
	}
	return &ProductTree{p: t.p, root: del(t.root, i)}
}
