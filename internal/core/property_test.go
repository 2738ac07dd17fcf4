package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"vcqr/internal/basep"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
)

// TestChainProofCoversEveryRepresentationIndex forces the non-canonical
// path at every preferred-representation index: for each index i we
// search for a (key, bound) pair whose Select lands on i, then run the
// full prove/verify round trip. This pins down the audit-path handling
// for every leaf of the representation tree.
func TestChainProofCoversEveryRepresentationIndex(t *testing.T) {
	p := mustParams(t, 0, 1<<16, 2)
	h := hashx.New()
	m := p.BP.M()
	covered := make(map[int]bool)
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20000 && len(covered) < m-2; trial++ {
		key := uint64(rng.Intn(1<<16-2)) + 1
		bound := key + 1 + uint64(rng.Intn(int((uint64(1)<<16)-key-1)))
		if bound >= 1<<16 {
			continue
		}
		dt, err := p.deltaT(key, Up)
		if err != nil {
			continue
		}
		dc, err := p.deltaC(bound, Up)
		if err != nil || dc > dt {
			continue
		}
		sel, err := basep.Select(p.BP, dt, dc)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Canonical || covered[sel.Index] {
			continue
		}
		covered[sel.Index] = true

		want, err := sideCombined(h, nil, p, key, Up)
		if err != nil {
			t.Fatal(err)
		}
		proof, err := proveSide(h, p, key, Up, bound)
		if err != nil {
			t.Fatalf("index %d: %v", sel.Index, err)
		}
		if proof.Canonical || proof.Index != sel.Index {
			t.Fatalf("index %d: proof landed on %d (canonical=%v)", sel.Index, proof.Index, proof.Canonical)
		}
		combined, err := verifyChain(h, p, proof, Up, bound)
		if err != nil {
			t.Fatalf("index %d verify: %v", sel.Index, err)
		}
		if !combined.Equal(want) {
			t.Fatalf("index %d: combined digest mismatch", sel.Index)
		}
	}
	if len(covered) < 5 {
		t.Fatalf("only covered %d non-canonical indexes; want broad coverage", len(covered))
	}
}

// TestAttrRootDisclosureEquivalence: for every subset of disclosed
// columns, with the key slot opened from the key or travelling as its
// leaf digest, AppendAttrRoot must reproduce the owner's AttrRoot.
func TestAttrRootDisclosureEquivalence(t *testing.T) {
	h := hashx.New()
	tuple := relation.Tuple{
		Key:   42,
		RowID: 3,
		Attrs: []relation.Value{
			relation.IntVal(7),
			relation.StringVal("abc"),
			relation.BytesVal([]byte{1, 2, 3}),
			relation.BoolVal(true),
		},
	}
	want := AttrRoot(h, tuple)
	leaves := AttrLeaves(h, tuple)
	nLeaves := len(tuple.Attrs) + 2
	// All 2^4 disclosure subsets of the 4 columns (row-id always hidden),
	// each with the key opened and hidden.
	for mask := 0; mask < 32; mask++ {
		disclosed := make([][]byte, nLeaves)
		hidden := []hashx.Digest{leaves[0]}
		for c := 0; c < 4; c++ {
			if mask&(1<<c) != 0 {
				disclosed[c+1] = tuple.Attrs[c].Encode()
			} else {
				hidden = append(hidden, leaves[c+1])
			}
		}
		if mask&16 != 0 {
			disclosed[nLeaves-1] = hashx.U64(tuple.Key)
		} else {
			hidden = append(hidden, KeyLeaf(h, tuple.Key))
		}
		got, err := attrRootFrom(h, disclosed, hidden)
		if err != nil {
			t.Fatalf("mask %05b: %v", mask, err)
		}
		if !got.Equal(want) {
			t.Fatalf("mask %05b: root mismatch", mask)
		}
	}
}

// TestAttrRootKeySlot: a user who opens only the key slot — every
// attribute and the row id travelling as digests — rebuilds the owner's
// AttrRoot at 0, 1 and 3 attributes, and a neighbouring key does not.
func TestAttrRootKeySlot(t *testing.T) {
	h := hashx.New()
	for _, attrs := range [][]relation.Value{
		nil,
		{relation.IntVal(7)},
		{relation.IntVal(7), relation.StringVal("abc"), relation.BoolVal(false)},
	} {
		tuple := relation.Tuple{Key: 1 << 20, RowID: 1, Attrs: attrs}
		disclosed := make([][]byte, len(attrs)+2)
		hidden := AttrLeaves(h, tuple)
		for _, key := range []uint64{tuple.Key, tuple.Key + 1, tuple.Key - 1} {
			disclosed[len(disclosed)-1] = hashx.U64(key)
			got, err := attrRootFrom(h, disclosed, hidden)
			if err != nil {
				t.Fatal(err)
			}
			if got.Equal(AttrRoot(h, tuple)) != (key == tuple.Key) {
				t.Errorf("%d attributes, key %d opened for %d: root match %v", len(attrs), key, tuple.Key, key != tuple.Key)
			}
		}
	}
}

func TestAttrRootDisclosureRejectsInconsistency(t *testing.T) {
	h := hashx.New()
	tuple := relation.Tuple{Key: 1, Attrs: []relation.Value{relation.IntVal(7)}}
	leaves := AttrLeaves(h, tuple)
	key := hashx.U64(tuple.Key)
	// Too few digests for the hidden leaves.
	if _, err := attrRootFrom(h, make([][]byte, 3), []hashx.Digest{leaves[0]}); err == nil {
		t.Error("short disclosure accepted")
	}
	// Malformed digest width.
	if _, err := attrRootFrom(h, [][]byte{nil, tuple.Attrs[0].Encode(), key},
		[]hashx.Digest{leaves[0][:4]}); err == nil {
		t.Error("short digest accepted")
	}
	// A digest beyond the last hidden leaf binds nothing: same root.
	want := AttrRoot(h, tuple)
	got, err := attrRootFrom(h, [][]byte{nil, tuple.Attrs[0].Encode(), key},
		[]hashx.Digest{leaves[0], leaves[1]})
	if err != nil || !got.Equal(want) {
		t.Errorf("surplus digest changed the outcome: %v", err)
	}
}

// TestGDistinctAcrossKeysAndKinds: g must separate records by key, kind,
// and attributes (quick property over random pairs).
func TestGDistinctAcrossKeysAndKinds(t *testing.T) {
	h := hashx.New()
	p := mustParams(t, 0, 1<<20, 2)
	f := func(k1, k2 uint32, a1, a2 int64) bool {
		key1 := uint64(k1)%(1<<20-2) + 1
		key2 := uint64(k2)%(1<<20-2) + 1
		t1 := relation.Tuple{Key: key1, Attrs: []relation.Value{relation.IntVal(a1)}}
		t2 := relation.Tuple{Key: key2, Attrs: []relation.Value{relation.IntVal(a2)}}
		r1, err := makeRecord(h, p, t1)
		if err != nil {
			return false
		}
		r2, err := makeRecord(h, p, t2)
		if err != nil {
			return false
		}
		if key1 == key2 && a1 == a2 {
			return r1.G.Equal(r2.G)
		}
		return !r1.G.Equal(r2.G)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestVerifyEntrySigAndCheckEntryDigests covers the delta-sync helpers.
func TestVerifyEntrySigAndCheckEntryDigests(t *testing.T) {
	h, sr := buildPaper(t, 10)
	pub := signKey(t).Public()
	for i := range sr.Recs {
		if !sr.VerifyEntrySig(h, pub, i) {
			t.Fatalf("entry %d signature invalid", i)
		}
		if err := sr.CheckEntryDigests(h, i); err != nil {
			t.Fatalf("entry %d digests: %v", i, err)
		}
	}
	if sr.VerifyEntrySig(h, pub, -1) || sr.VerifyEntrySig(h, pub, len(sr.Recs)) {
		t.Fatal("out-of-range entries verified")
	}
	// Tamper one record's tuple: digests check must fail.
	sr.Own(2).Tuple.Attrs[0] = relation.IntVal(999)
	if err := sr.CheckEntryDigests(h, 2); err == nil {
		t.Fatal("tampered tuple passed digest check")
	}
}

// TestCloneIndependence pins Clone's contract: the clone shares its
// records by pointer, so every edit the immutability rule allows —
// swapping a record's pointer, editing the copy Own swaps in (its Sig, G
// or key), appending to or truncating Recs — must leave the original
// Validate-clean and its records the ones it had.
func TestCloneIndependence(t *testing.T) {
	h, sr := buildPaper(t, 10)
	pub := signKey(t).Public()
	n := len(sr.Recs)
	before := slices.Clone(sr.Recs)
	cl := sr.Clone()
	cl.Recs[2] = cl.Recs[3]
	cl.Own(1).Sig = []byte("not a signature")
	cl.Own(1).G = hashx.Digest("not a digest")
	cl.Own(4).Tuple.Key++
	cl.Own(5).Tuple.Attrs[0] = relation.IntVal(-1)
	cl.Recs = append(cl.Recs, cl.Recs[1])
	if err := sr.Validate(h, pub); err != nil {
		t.Fatalf("original corrupted by clone mutation: %v", err)
	}
	if cl.Recs[1] == sr.Recs[1] || cl.Recs[6] != sr.Recs[6] {
		t.Fatal("Own did not swap in a private copy, or an untouched entry is no longer shared")
	}
	cl.Recs = cl.Recs[:3]
	if _, err := cl.Insert(h, signKey(t), relation.Tuple{Key: sr.Recs[1].Key(), Attrs: sr.Recs[1].Tuple.Attrs}); err != nil {
		t.Fatal(err)
	}
	if err := sr.Validate(h, pub); err != nil {
		t.Fatalf("original corrupted by clone truncate/insert: %v", err)
	}
	if len(sr.Recs) != n || !slices.Equal(sr.Recs, before) {
		t.Fatalf("original has %d entries after clone edits, want its %d", len(sr.Recs), n)
	}
}

// TestDirectionSeparation: the up and down chains of the same key must
// never share digests, even when their delta values coincide.
func TestDirectionSeparation(t *testing.T) {
	h := hashx.New()
	// Symmetric domain: key at the midpoint has equal deltas both ways.
	p := mustParams(t, 0, 1000, 2)
	key := uint64(500) // deltaT(up) = 499 = deltaT(down)
	up, err := sideCombined(h, nil, p, key, Up)
	if err != nil {
		t.Fatal(err)
	}
	down, err := sideCombined(h, nil, p, key, Down)
	if err != nil {
		t.Fatal(err)
	}
	if up.Equal(down) {
		t.Fatal("up and down chains collide at the symmetric key")
	}
}
