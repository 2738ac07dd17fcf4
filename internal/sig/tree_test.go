package sig

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
)

// treeKey builds a small deterministic "key" for tree arithmetic tests —
// the tree only needs a modulus, so a fixed prime-ish odd modulus keeps
// these tests free of RSA keygen cost.
func treeKey() *PublicKey {
	n, _ := new(big.Int).SetString("00c7f1c97f4d9c64e1d5627a1e9df6b6f9fbb4f6e8f3ad0b4d47a3fa6bfa70b1d1", 16)
	return &PublicKey{N: n, E: 65537}
}

func randVals(rng *rand.Rand, p *PublicKey, n int) []*big.Int {
	vals := make([]*big.Int, n)
	for i := range vals {
		v := new(big.Int).Rand(rng, p.N)
		if v.Sign() == 0 {
			v.SetInt64(1)
		}
		vals[i] = v
	}
	return vals
}

func naiveRange(p *PublicKey, vals []*big.Int, i, j int) *big.Int {
	acc := big.NewInt(1)
	for ; i < j; i++ {
		acc.Mul(acc, vals[i])
		acc.Mod(acc, p.N)
	}
	return acc
}

func checkAllRanges(t *testing.T, p *PublicKey, tr *ProductTree, vals []*big.Int) {
	t.Helper()
	if tr.Len() != len(vals) {
		t.Fatalf("tree has %d leaves, want %d", tr.Len(), len(vals))
	}
	for i := 0; i <= len(vals); i++ {
		for j := i; j <= len(vals); j++ {
			got, want := tr.Range(i, j), naiveRange(p, vals, i, j)
			if got.Cmp(want) != 0 {
				t.Fatalf("Range(%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestProductTreeRanges(t *testing.T) {
	p := treeKey()
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 7, 16, 33} {
		vals := randVals(rng, p, n)
		checkAllRanges(t, p, p.NewProductTree(vals, nil), vals)
	}
}

// TestProductTreePersistentUpdates drives a random op sequence against a
// shadow slice, checking every range after every op AND that earlier
// tree versions are untouched (persistence).
func TestProductTreePersistentUpdates(t *testing.T) {
	p := treeKey()
	rng := rand.New(rand.NewSource(11))
	vals := randVals(rng, p, 12)
	tr := p.NewProductTree(vals, nil)
	origVals := append([]*big.Int(nil), vals...)
	orig := tr

	for op := 0; op < 200; op++ {
		v := randVals(rng, p, 1)[0]
		switch choice := rng.Intn(3); {
		case choice == 0 && tr.Len() > 0: // update
			i := rng.Intn(tr.Len())
			tr = tr.UpdateMany([]int{i}, []*big.Int{v}, nil)
			vals[i] = v
		case choice == 1 && tr.Len() > 1: // delete
			i := rng.Intn(tr.Len())
			tr = tr.Delete(i)
			vals = append(vals[:i], vals[i+1:]...)
		default: // insert
			i := rng.Intn(tr.Len() + 1)
			tr = tr.Insert(i, v, nil)
			vals = append(vals, nil)
			copy(vals[i+1:], vals[i:])
			vals[i] = v
		}
		if op%20 == 0 {
			checkAllRanges(t, p, tr, vals)
		}
	}
	checkAllRanges(t, p, tr, vals)
	// The original version must be byte-for-byte what it was.
	checkAllRanges(t, p, orig, origVals)
}

// TestProductTreeBalance checks the height stays logarithmic under an
// adversarial (sorted-position) insert sequence.
func TestProductTreeBalance(t *testing.T) {
	p := treeKey()
	one := big.NewInt(1)
	tr := p.NewProductTree(nil, nil)
	const n = 4096
	for i := 0; i < n; i++ {
		tr = tr.Insert(tr.Len(), one, nil) // always append: worst case for an unbalanced tree
	}
	if h := tr.Height(); h > 4*17 { // ~ (1/log2(Δ+1/Δ)) * log2(n) with slack
		t.Fatalf("height %d after %d appends — tree is not rebalancing", h, n)
	}
	for i := 0; i < n/2; i++ {
		tr = tr.Delete(0) // always delete leftmost: worst case the other way
	}
	if h := tr.Height(); h > 4*16 {
		t.Fatalf("height %d after deletes — tree is not rebalancing", h)
	}
	if tr.Len() != n/2 {
		t.Fatalf("len %d, want %d", tr.Len(), n/2)
	}
}

// TestProductTreeTags checks tags ride along through every operation.
func TestProductTreeTags(t *testing.T) {
	p := treeKey()
	one := big.NewInt(1)
	tr := p.NewProductTree([]*big.Int{one, one, one}, [][]byte{{0}, {1}, {2}})
	tr = tr.Insert(1, one, []byte{9})
	tr = tr.Delete(0)
	tr = tr.UpdateMany([]int{2}, []*big.Int{one}, [][]byte{{7}})
	want := [][]byte{{9}, {1}, {7}}
	for i, w := range want {
		if _, tag := tr.At(i); len(tag) != 1 || tag[0] != w[0] {
			t.Fatalf("leaf %d tag %v, want %v", i, tag, w)
		}
	}
}

// updateOne is the single-leaf path-copying update UpdateMany replaced:
// every ancestor of leaf i rebuilt, once per updated leaf. It is the
// reference TestUpdateManyMatchesUpdate holds UpdateMany to.
func (t *ProductTree) updateOne(i int, val *big.Int, tag []byte) *ProductTree {
	var up func(n *ptNode, i int) *ptNode
	up = func(n *ptNode, i int) *ptNode {
		ls := n.left.sz()
		switch {
		case i < ls:
			return t.mkNode(up(n.left, i), n.val, n.tag, n.right)
		case i == ls:
			return t.mkNode(n.left, val, tag, n.right)
		default:
			return t.mkNode(n.left, n.val, n.tag, up(n.right, i-ls-1))
		}
	}
	return &ProductTree{p: t.p, root: up(t.root, i)}
}

// ancestors returns the nodes on the root paths of the given leaves.
func (t *ProductTree) ancestors(pos []int) map[*ptNode]bool {
	out := map[*ptNode]bool{}
	for _, i := range pos {
		n := t.root
		for {
			out[n] = true
			ls := n.left.sz()
			if i == ls {
				break
			}
			if i < ls {
				n = n.left
			} else {
				n, i = n.right, i-ls-1
			}
		}
	}
	return out
}

// fresh returns the nodes of t that old does not share.
func (t *ProductTree) fresh(old *ProductTree) int {
	shared := map[*ptNode]bool{}
	var walk func(n *ptNode, into map[*ptNode]bool)
	walk = func(n *ptNode, into map[*ptNode]bool) {
		if n != nil {
			into[n] = true
			walk(n.left, into)
			walk(n.right, into)
		}
	}
	walk(old.root, shared)
	mine := map[*ptNode]bool{}
	walk(t.root, mine)
	count := 0
	for n := range mine {
		if !shared[n] {
			count++
		}
	}
	return count
}

// TestUpdateManyMatchesUpdate holds UpdateMany to the single-leaf
// reference and to a fresh build, for random sorted position sets — runs
// of adjacent leaves, as a delta's refresh produces, and scattered sets:
// every leaf, every tag and every Range must agree, the receiver must be
// untouched, and the new nodes must be exactly the union of the updated
// leaves' root paths (each ancestor rebuilt once).
func TestUpdateManyMatchesUpdate(t *testing.T) {
	p := treeKey()
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 2, 5, 16, 33, 70} {
		vals := randVals(rng, p, n)
		base := p.NewProductTree(vals, nil)
		for round := 0; round < 12; round++ {
			var pos []int
			if round%2 == 0 {
				start, run := rng.Intn(n), 1+rng.Intn(7)
				for i := start; i < n && i < start+run; i++ {
					pos = append(pos, i)
				}
			} else {
				for i := 0; i < n; i++ {
					if rng.Intn(4) == 0 {
						pos = append(pos, i)
					}
				}
			}
			nv := randVals(rng, p, len(pos))
			tags := make([][]byte, len(pos))
			want := append([]*big.Int(nil), vals...)
			wantTags := make([][]byte, n)
			ref := base
			for k, i := range pos {
				tags[k] = []byte{byte(i), byte(round)}
				want[i], wantTags[i] = nv[k], tags[k]
				ref = ref.updateOne(i, nv[k], tags[k])
			}
			got := base.UpdateMany(pos, nv, tags)
			checkAllRanges(t, p, got, want)
			checkAllRanges(t, p, ref, want)
			checkAllRanges(t, p, p.NewProductTree(want, wantTags), want)
			checkAllRanges(t, p, base, vals)
			for i := 0; i < n; i++ {
				gv, gt := got.At(i)
				rv, rt := ref.At(i)
				if gv.Cmp(rv) != 0 || !bytes.Equal(gt, rt) || !bytes.Equal(gt, wantTags[i]) {
					t.Fatalf("n=%d pos=%v: leaf %d differs from the single-leaf reference", n, pos, i)
				}
			}
			if fresh, paths := got.fresh(base), len(base.ancestors(pos)); fresh != paths {
				t.Fatalf("n=%d pos=%v: %d new nodes, want the %d on the leaves' root paths", n, pos, fresh, paths)
			}
		}
	}
}

// TestSigTreeMatchesAggregate ties the tree to the condensed-RSA
// primitive: RangeSig over real signatures equals Aggregate.
func TestSigTreeMatchesAggregate(t *testing.T) {
	key, err := Generate(DefaultBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := key.Public()
	var sigs []Signature
	for i := byte(0); i < 9; i++ {
		sigs = append(sigs, key.Sign([]byte{i}))
	}
	tr, err := p.NewSigTree(sigs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(sigs); i++ {
		for j := i + 1; j <= len(sigs); j++ {
			want, err := p.Aggregate(sigs[i:j])
			if err != nil {
				t.Fatal(err)
			}
			got, err := tr.RangeSig(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("RangeSig(%d,%d) != Aggregate", i, j)
			}
		}
	}
	if _, err := tr.RangeSig(3, 3); err != ErrEmptyAggregate {
		t.Fatalf("empty RangeSig error = %v", err)
	}
}

// Height returns the tree height (0 for empty), which the balance test
// bounds: queries cost O(Height) multiplications.
func (t *ProductTree) Height() int {
	var h func(n *ptNode) int
	h = func(n *ptNode) int {
		if n == nil {
			return 0
		}
		l, r := h(n.left), h(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return h(t.root)
}

// FuzzProductTree: for any leaves in Z_N — the fuzzer's bytes cut into
// N-wide words and reduced, so N−1 and 0 come up — every range product
// of a built tree, of an UpdateMany successor and of an Insert/Delete
// successor equals the Mul+Mod fold: the Barrett-reduced nodes and folds
// are bit-identical to the division they replace.
func FuzzProductTree(f *testing.F) {
	p := key(f).Public()
	width := p.SigBytes()
	f.Add(bytes.Repeat([]byte{0xff}, 5*width), []byte{0, 2, 4})
	f.Add([]byte{1, 2, 3}, []byte{})
	f.Add(make([]byte, 3*width+7), []byte{1, 1, 0xff})
	f.Add(append(p.N.Bytes(), new(big.Int).Sub(p.N, big.NewInt(1)).Bytes()...), []byte{7})
	f.Fuzz(func(t *testing.T, raw, ops []byte) {
		var vals []*big.Int
		for len(raw) > 0 && len(vals) < 12 {
			w := raw[:min(len(raw), width)]
			raw = raw[len(w):]
			vals = append(vals, new(big.Int).Mod(new(big.Int).SetBytes(w), p.N))
		}
		tr := p.NewProductTree(vals, nil)
		checkAllRanges(t, p, tr, vals)
		if len(vals) == 0 {
			return
		}
		// Replace every leaf an op byte names with the square of its
		// successor, then insert the product of the first two leaves at
		// the first op's position and delete the last leaf.
		var pos []int
		var repl []*big.Int
		for i := range vals {
			if bytes.IndexByte(ops, byte(i)) >= 0 {
				v := vals[(i+1)%len(vals)]
				pos, repl = append(pos, i), append(repl, new(big.Int).Mod(new(big.Int).Mul(v, v), p.N))
			}
		}
		next := append([]*big.Int(nil), vals...)
		for k, i := range pos {
			next[i] = repl[k]
		}
		up := tr.UpdateMany(pos, repl, nil)
		checkAllRanges(t, p, up, next)
		at := 0
		if len(ops) > 0 {
			at = int(ops[0]) % (len(next) + 1)
		}
		ins := naiveRange(p, next, 0, min(2, len(next)))
		next = append(next[:at], append([]*big.Int{ins}, next[at:]...)...)
		up = up.Insert(at, ins, nil).Delete(len(next) - 1)
		checkAllRanges(t, p, up, next[:len(next)-1])
		checkAllRanges(t, p, tr, vals) // persistence: the first tree is untouched
	})
}

// BenchmarkProductTreeRange is the owner's per-sub-stream signature
// cost: a 64-leaf range product over a 4,096-leaf tree at the real key
// size, a few Barrett-reduced folds.
func BenchmarkProductTreeRange(b *testing.B) {
	p := key(b).Public()
	rng := rand.New(rand.NewSource(1))
	tr := p.NewProductTree(randVals(rng, p, 4096), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Intn(4096 - 64)
		tr.Range(lo, lo+64)
	}
}

// BenchmarkProductTreeUpdateMany is a delta's index refresh: three
// adjacent leaves replaced, every ancestor rebuilt once.
func BenchmarkProductTreeUpdateMany(b *testing.B) {
	p := key(b).Public()
	rng := rand.New(rand.NewSource(1))
	vals := randVals(rng, p, 4096)
	tr := p.NewProductTree(vals, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := rng.Intn(4096 - 3)
		tr.UpdateMany([]int{at, at + 1, at + 2}, vals[:3], nil)
	}
}
