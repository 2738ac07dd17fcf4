package mht

import (
	"fmt"
	"testing"

	"vcqr/internal/hashx"
)

// leafDigests returns n leaf digests laid end to end, as Root and
// RootPath take them, and one by one.
func leafDigests(h *hashx.Hasher, data [][]byte) ([]byte, []hashx.Digest) {
	var flat []byte
	leaves := make([]hashx.Digest, len(data))
	for i, d := range data {
		leaves[i] = h.Leaf(d)
		flat = append(flat, leaves[i]...)
	}
	return flat, leaves
}

func leafData(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	return out
}

// root folds the leaves over data into their root.
func root(h *hashx.Hasher, data [][]byte) hashx.Digest {
	flat, _ := leafDigests(h, data)
	b := h.Batch()
	defer b.Done()
	return Root(&b, flat)
}

// rootPath folds the leaves over data into their root and leaf i's path.
func rootPath(h *hashx.Hasher, data [][]byte, i int) (hashx.Digest, []PathElem) {
	flat, _ := leafDigests(h, data)
	b := h.Batch()
	defer b.Done()
	return RootPath(&b, flat, i)
}

func TestRootChangesWithAnyLeaf(t *testing.T) {
	h := hashx.New()
	base := root(h, leafData(8))
	for i := 0; i < 8; i++ {
		leaves := leafData(8)
		leaves[i] = []byte("tampered")
		if root(h, leaves).Equal(base) {
			t.Errorf("changing leaf %d must change root", i)
		}
	}
}

func TestRootDependsOnLeafCount(t *testing.T) {
	h := hashx.New()
	r7 := root(h, leafData(7))
	r8 := root(h, leafData(8))
	if r7.Equal(r8) {
		t.Fatal("appending a leaf must change the root")
	}
}

func TestEmptyAndSingleLeaf(t *testing.T) {
	h := hashx.New()
	if root(h, nil) == nil {
		t.Fatal("empty tree must still have a root")
	}
	one, path := rootPath(h, leafData(1), 0)
	if !one.Equal(h.Leaf(leafData(1)[0])) {
		t.Fatal("single-leaf tree root must equal the leaf digest")
	}
	if got := len(path); got != 0 {
		t.Fatalf("single-leaf path length = %d, want 0", got)
	}
}

func TestPathVerification(t *testing.T) {
	h := hashx.New()
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 16, 31} {
		_, leaves := leafDigests(h, leafData(n))
		for i := 0; i < n; i++ {
			root, path := rootPath(h, leafData(n), i)
			if !verifyPath(h, leaves[i], path, root) {
				t.Errorf("n=%d leaf=%d: valid path rejected", n, i)
			}
			// Wrong leaf digest must fail.
			if verifyPath(h, h.Leaf([]byte("forged")), path, root) {
				t.Errorf("n=%d leaf=%d: forged leaf accepted", n, i)
			}
			// Tampered path element must fail.
			if len(path) > 0 {
				bad := make([]PathElem, len(path))
				copy(bad, path)
				bad[0].Sibling = bad[0].Sibling.Clone()
				bad[0].Sibling[0] ^= 0xff
				if verifyPath(h, leaves[i], bad, root) {
					t.Errorf("n=%d leaf=%d: tampered path accepted", n, i)
				}
			}
		}
	}
}

func TestPathLength(t *testing.T) {
	h := hashx.New()
	if _, path := rootPath(h, leafData(16), 3); len(path) != 4 {
		t.Fatalf("path length over 16 leaves = %d, want 4", len(path))
	}
	// padded to 16
	if _, path := rootPath(h, leafData(9), 3); len(path) != 4 {
		t.Fatalf("path length over 9 (padded 16) leaves = %d, want 4", len(path))
	}
}

// verifyPath reports whether leaf+path reproduce root.
func verifyPath(h *hashx.Hasher, leaf hashx.Digest, path []PathElem, root hashx.Digest) bool {
	return RootFromPath(h, leaf, path).Equal(root)
}
