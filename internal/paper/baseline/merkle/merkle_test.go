package merkle

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"vcqr/internal/hashx"
	"vcqr/internal/mht"
)

func leafData(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	return out
}

// verifyPath reports whether leaf+path reproduce root.
func verifyPath(h *hashx.Hasher, leaf hashx.Digest, path []mht.PathElem, root hashx.Digest) bool {
	return mht.RootFromPath(h, leaf, path).Equal(root)
}

func TestBuildDeterministic(t *testing.T) {
	h := hashx.New()
	a := Build(h, leafData(7))
	b := Build(h, leafData(7))
	if !a.Root().Equal(b.Root()) {
		t.Fatal("same leaves must yield same root")
	}
}

func TestUpdate(t *testing.T) {
	h := hashx.New()
	tr := Build(h, leafData(10))
	fresh := leafData(10)
	fresh[4] = []byte("updated")
	want := Build(h, fresh).Root()
	work := tr.Update(4, h.Leaf([]byte("updated")))
	if !tr.Root().Equal(want) {
		t.Fatal("incremental update root != rebuilt root")
	}
	if work != 4 {
		t.Fatalf("update over 10 (padded 16) leaves recomputed %d nodes, want 4", work)
	}
	// Paths must still verify after the update.
	for i := 0; i < 10; i++ {
		if !verifyPath(h, tr.Leaf(i), tr.Path(i), tr.Root()) {
			t.Errorf("leaf %d path invalid after update", i)
		}
	}
}

func TestRangeProofAllRanges(t *testing.T) {
	h := hashx.New()
	for _, n := range []int{1, 2, 3, 5, 8, 11, 16} {
		tr := Build(h, leafData(n))
		for lo := 0; lo < n; lo++ {
			for hi := lo; hi < n; hi++ {
				p, err := tr.ProveRange(lo, hi)
				if err != nil {
					t.Fatalf("n=%d [%d,%d]: %v", n, lo, hi, err)
				}
				leaves := make([]hashx.Digest, hi-lo+1)
				for i := range leaves {
					leaves[i] = tr.Leaf(lo + i)
				}
				if !VerifyRange(h, p, leaves, tr.Root()) {
					t.Errorf("n=%d [%d,%d]: valid range rejected", n, lo, hi)
				}
			}
		}
	}
}

func TestRangeProofRejectsOmission(t *testing.T) {
	// The core soundness property the Devanbu baseline rests on: a proof
	// for [lo,hi] cannot be verified with a leaf replaced or omitted.
	h := hashx.New()
	tr := Build(h, leafData(16))
	p, err := tr.ProveRange(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	leaves := make([]hashx.Digest, 6)
	for i := range leaves {
		leaves[i] = tr.Leaf(4 + i)
	}
	// Replace one covered leaf.
	bad := make([]hashx.Digest, len(leaves))
	copy(bad, leaves)
	bad[2] = h.Leaf([]byte("spurious"))
	if VerifyRange(h, p, bad, tr.Root()) {
		t.Fatal("range proof accepted a substituted leaf")
	}
	// Drop a leaf (length mismatch must be rejected).
	if VerifyRange(h, p, leaves[:5], tr.Root()) {
		t.Fatal("range proof accepted a short leaf list")
	}
	// Shifted window with same length must fail.
	shift := make([]hashx.Digest, 6)
	for i := range shift {
		shift[i] = tr.Leaf(5 + i)
	}
	if VerifyRange(h, p, shift, tr.Root()) {
		t.Fatal("range proof accepted shifted leaves")
	}
}

func TestRangeProofBoundsChecked(t *testing.T) {
	h := hashx.New()
	tr := Build(h, leafData(8))
	if _, err := tr.ProveRange(-1, 3); err == nil {
		t.Error("negative lo must error")
	}
	if _, err := tr.ProveRange(3, 8); err == nil {
		t.Error("hi >= n must error")
	}
	if _, err := tr.ProveRange(5, 4); err == nil {
		t.Error("lo > hi must error")
	}
	bogus := RangeProof{Lo: 0, Hi: 9, Total: 8}
	if VerifyRange(h, bogus, make([]hashx.Digest, 10), tr.Root()) {
		t.Error("out-of-range proof must not verify")
	}
}

func TestRangeProofSizeLogarithmic(t *testing.T) {
	// A single-leaf range over n leaves needs about log2(n) digests:
	// the property behind the baseline's "VO grows logarithmically to the
	// base table" characteristic (Section 2.3 point 2).
	h := hashx.New()
	tr := Build(h, leafData(1024))
	p, err := tr.ProveRange(512, 512)
	if err != nil {
		t.Fatal(err)
	}
	if p.ProofSize() != 10 {
		t.Fatalf("single-leaf proof over 1024 leaves has %d digests, want 10", p.ProofSize())
	}
}

func TestRangeProofQuick(t *testing.T) {
	h := hashx.New()
	tr := Build(h, leafData(64))
	f := func(a, b uint8) bool {
		lo, hi := int(a%64), int(b%64)
		if lo > hi {
			lo, hi = hi, lo
		}
		p, err := tr.ProveRange(lo, hi)
		if err != nil {
			return false
		}
		leaves := make([]hashx.Digest, hi-lo+1)
		for i := range leaves {
			leaves[i] = tr.Leaf(lo + i)
		}
		return VerifyRange(h, p, leaves, tr.Root())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPanicsOnBadIndex(t *testing.T) {
	h := hashx.New()
	tr := Build(h, leafData(4))
	for _, fn := range []func(){
		func() { tr.Leaf(4) },
		func() { tr.Leaf(-1) },
		func() { tr.Path(4) },
		func() { tr.Update(9, h.Leaf([]byte("x"))) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on out-of-range index")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkBuild1024(b *testing.B) {
	h := hashx.New()
	data := leafData(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(h, data)
	}
}

func BenchmarkUpdateVsRebuild(b *testing.B) {
	h := hashx.New()
	tr := Build(h, leafData(4096))
	rng := rand.New(rand.NewSource(7))
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.Update(rng.Intn(4096), h.Leaf([]byte{byte(i)}))
		}
	})
}

// TestRootPathMatchesTree: the one-pass fold gives, for every leaf count
// (none included) and every leaf, the root and the audit path a built
// tree reports, and that path verifies; asking for no path gives the root
// alone.
func TestRootPathMatchesTree(t *testing.T) {
	h := hashx.New()
	for n := 0; n <= 65; n++ {
		leaves := make([]hashx.Digest, n)
		var flat []byte
		for i := range leaves {
			leaves[i] = h.Leaf([]byte(fmt.Sprintf("leaf-%d", i)))
			flat = append(flat, leaves[i]...)
		}
		tree := BuildFromDigests(h, leaves)
		if tree.Len() != n {
			t.Fatalf("n=%d: tree Len %d", n, tree.Len())
		}
		b := h.Batch()
		root, path := mht.RootPath(&b, append([]byte(nil), flat...), -1)
		if !root.Equal(tree.Root()) || path != nil {
			t.Fatalf("n=%d: root-only fold gives %x and path %v, tree root %x", n, root, path, tree.Root())
		}
		for i := 0; i < n; i++ {
			root, path := mht.RootPath(&b, append([]byte(nil), flat...), i)
			if !root.Equal(tree.Root()) {
				t.Fatalf("n=%d leaf %d: root %x, tree root %x", n, i, root, tree.Root())
			}
			if !reflect.DeepEqual(path, tree.Path(i)) {
				t.Fatalf("n=%d leaf %d: path %v, tree path %v", n, i, path, tree.Path(i))
			}
			if !verifyPath(h, leaves[i], path, root) {
				t.Fatalf("n=%d leaf %d: path does not verify", n, i)
			}
		}
		b.Done()
	}
}
