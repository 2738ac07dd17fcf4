package core

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"vcqr/internal/hashx"
	"vcqr/internal/relation"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_digests.json from the current code")

const goldenPath = "testdata/golden_digests.json"

// goldenTuple is the record the attribute-root and g goldens are taken
// over: a fixed-width, a long (multi-block) and a one-byte leaf.
func goldenTuple(key uint64) relation.Tuple {
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	return relation.Tuple{Key: key, RowID: 2, Attrs: []relation.Value{
		relation.IntVal(-5), relation.BytesVal(payload), relation.BoolVal(true),
	}}
}

// goldenRelation holds one goldenTuple per key.
func goldenRelation(t testing.TB, p Params, keys []uint64) *relation.Relation {
	t.Helper()
	rel, err := relation.New(relation.Schema{Name: "G", KeyName: "K", Cols: []relation.Column{
		{Name: "A", Type: relation.TypeInt}, {Name: "B", Type: relation.TypeBytes}, {Name: "C", Type: relation.TypeBool},
	}}, p.L, p.U)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if _, err := rel.Insert(goldenTuple(key)); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// goldenKeys spans the domain: both ends, a small and a mid-range key.
var goldenKeys = []uint64{1, 2, 77777, 1<<31 + 12345, 1<<32 - 2}

// goldenDigests recomputes every digest the committed golden file pins:
// the digest values of the scheme are its wire format and its signatures'
// pre-images, so a kernel change must reproduce all of them bit for bit.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	put := func(name string, d []byte) {
		if _, dup := out[name]; dup {
			t.Fatalf("golden name %q used twice", name)
		}
		out[name] = hex.EncodeToString(d)
	}
	keys := goldenKeys
	for _, size := range []int{8, 16, 32} {
		for _, base := range []uint64{2, 4, 16} {
			h := hashx.NewSize(size)
			p, err := NewParams(0, 1<<32, base)
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("size%d/base%d", size, base)

			// Attribute roots: every column disclosed, two of three, none.
			tuple := goldenTuple(77777)
			attrRoot := AttrRoot(h, tuple)
			put(tag+"/attr/owner", attrRoot)
			for name, cols := range map[string][]int{"full": {0, 1, 2}, "partial": {0, 2}, "hidden": {}} {
				root, err := disclosedRoot(h, tuple, cols, true)
				if err != nil {
					t.Fatal(err)
				}
				put(tag+"/attr/"+name, root)
			}
			// A Case 2 entry: only the third column opened, the key leaf
			// travelling as a digest.
			root, err := disclosedRoot(h, tuple, []int{2}, false)
			if err != nil {
				t.Fatal(err)
			}
			put(tag+"/attr/key-hidden", root)

			// g for records the user knows the key of, and for delimiters.
			upRoot, downRoot := h.Hash([]byte("up-root")), h.Hash([]byte("down-root"))
			for _, key := range keys {
				g, err := EntryG(h, p, key, KindRecord, upRoot, downRoot, attrRoot)
				if err != nil {
					t.Fatal(err)
				}
				put(fmt.Sprintf("%s/g/record/%d", tag, key), g)
			}
			gl, err := EntryG(h, p, p.L, KindDelimLeft, upRoot, downRoot, markerDelimAttr(h))
			if err != nil {
				t.Fatal(err)
			}
			put(tag+"/g/delim-left", gl)
			gr, err := EntryG(h, p, p.U, KindDelimRight, upRoot, downRoot, markerDelimAttr(h))
			if err != nil {
				t.Fatal(err)
			}
			put(tag+"/g/delim-right", gr)
			b := h.Batch()
			put(tag+"/g/hidden", AppendG(&b, nil, KindRecord, h.CDigest(upRoot, downRoot), attrRoot))
			b.Done()

			// Formula (1) pre-signature digests: interior and both virtual
			// ends, unversioned and versioned.
			for _, version := range []uint64{0, 7} {
				pv := p
				pv.Version = version
				vt := fmt.Sprintf("%s/sigdigest/v%d", tag, version)
				put(vt+"/interior", SigDigestFor(h, pv, gl, attrRoot, gr))
				put(vt+"/left-end", SigDigestFor(h, pv, nil, gl, attrRoot))
				put(vt+"/right-end", SigDigestFor(h, pv, attrRoot, gr, nil))
			}

			// Owner-side digest material and both boundary-proof shapes.
			rel := goldenRelation(t, p, keys)
			sr, err := Build(h, signKey(t), p, rel)
			if err != nil {
				t.Fatal(err)
			}
			for i, rec := range sr.Recs {
				rt := fmt.Sprintf("%s/build/%d", tag, i)
				up, down := repRoots(t, h, p, rec)
				put(rt+"/g", rec.G)
				put(rt+"/up-root", up)
				put(rt+"/down-root", down)
				put(rt+"/up-combined", rec.UpCombined)
				put(rt+"/down-combined", rec.DownCombined)
				put(rt+"/combined", rec.Combined)
				put(rt+"/sigdigest", sr.sigDigest(h, i))
			}
			goldenBoundaries(t, h, sr, tag, put)
		}
	}
	return out
}

// goldenBoundaries pins, per direction, one canonical-representation
// boundary proof and one preferred-representation proof (the shape that
// carries an audit path): every digest the publisher ships and the
// g(boundary) the user reconstructs from them.
func goldenBoundaries(t *testing.T, h *hashx.Hasher, sr *SignedRelation, tag string, put func(string, []byte)) {
	t.Helper()
	for _, dir := range []Direction{Up, Down} {
		idx := 3 // key 77777
		var seen [2]bool
		for step := uint64(1); step < 4000 && !(seen[0] && seen[1]); step++ {
			bound := sr.Recs[idx].Key() + step*step
			if dir == Down {
				if step*step >= sr.Recs[idx].Key() {
					break
				}
				bound = sr.Recs[idx].Key() - step*step
			}
			proof, err := sr.ProveBoundary(h, idx, dir, bound)
			if err != nil {
				t.Fatal(err)
			}
			shape := 0
			if !proof.Chain.Canonical {
				shape = 1
			}
			if seen[shape] {
				continue
			}
			seen[shape] = true
			bt := fmt.Sprintf("%s/boundary/%s/%s", tag, dir, []string{"canonical", "preferred"}[shape])
			put(bt+"/bound", hashx.U64(bound))
			for j, d := range proof.Chain.Intermediates {
				put(fmt.Sprintf("%s/inter/%d", bt, j), d)
			}
			put(bt+"/rep-root", proof.Chain.RepRoot)
			put(bt+"/canon-digest", proof.Chain.CanonDigest)
			for j, e := range proof.Chain.RepPath {
				put(fmt.Sprintf("%s/path/%d", bt, j), e.Sibling)
			}
			g, err := VerifyBoundary(h, sr.Params, proof, dir, bound)
			if err != nil {
				t.Fatal(err)
			}
			put(bt+"/g", g)
			if !g.Equal(sr.Recs[idx].G) {
				t.Fatalf("%s: boundary proof does not reconstruct g", bt)
			}
		}
		if !seen[0] || !seen[1] {
			t.Fatalf("%s %s: did not find both proof shapes", tag, dir)
		}
	}
	// Delimiter boundaries: the marker digests enter g.
	n := len(sr.Recs)
	gl, err := sr.ProveBoundary(h, 0, Up, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := VerifyBoundary(h, sr.Params, gl, Up, 1)
	if err != nil {
		t.Fatal(err)
	}
	put(tag+"/boundary/delim-left/g", g)
	gr, err := sr.ProveBoundary(h, n-1, Down, sr.Params.U-1)
	if err != nil {
		t.Fatal(err)
	}
	g, err = VerifyBoundary(h, sr.Params, gr, Down, sr.Params.U-1)
	if err != nil {
		t.Fatal(err)
	}
	put(tag+"/boundary/delim-right/g", g)
}

// TestGoldenDigests holds every digest of the scheme to the values the
// pre-kernel implementation produced (generated at commit c274afd).
func TestGoldenDigests(t *testing.T) {
	got := goldenDigests(t)
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d digests computed, %d in %s", len(got), len(want), goldenPath)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s = %s, golden %s", name, g, w)
		}
	}
}

// disclosedRoot rebuilds MHT(r.A) the way a user does: the given columns
// opened as values, the key slot opened from the key when openKey, every
// other leaf (the row id included) as a digest.
func disclosedRoot(h *hashx.Hasher, t relation.Tuple, cols []int, openKey bool) (hashx.Digest, error) {
	leaves := append(AttrLeaves(h, t), KeyLeaf(h, t.Key))
	disclosed := make([][]byte, len(leaves))
	for _, c := range cols {
		disclosed[c+1] = t.Attrs[c].Encode()
	}
	if openKey {
		disclosed[len(leaves)-1] = hashx.U64(t.Key)
	}
	var hidden []hashx.Digest
	for i, l := range leaves {
		if disclosed[i] == nil {
			hidden = append(hidden, l)
		}
	}
	return attrRootFrom(h, disclosed, hidden)
}

// attrRootFrom is AppendAttrRoot into fresh storage.
func attrRootFrom(h *hashx.Hasher, disclosed [][]byte, hidden []hashx.Digest) (hashx.Digest, error) {
	b := h.Batch()
	defer b.Done()
	return AppendAttrRoot(&b, nil, disclosed, hidden)
}
