package core

import (
	"math/rand"
	"sync"
	"testing"

	"vcqr/internal/hashx"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
)

var (
	keyOnce sync.Once
	testKey *sig.PrivateKey
)

func signKey(t testing.TB) *sig.PrivateKey {
	keyOnce.Do(func() {
		k, err := sig.Generate(sig.DefaultBits, nil)
		if err != nil {
			t.Fatalf("keygen: %v", err)
		}
		testKey = k
	})
	return testKey
}

func paperSchema() relation.Schema {
	return relation.Schema{
		Name:    "Emp",
		KeyName: "Salary",
		Cols: []relation.Column{
			{Name: "ID", Type: relation.TypeInt},
			{Name: "Name", Type: relation.TypeString},
			{Name: "Dept", Type: relation.TypeInt},
		},
	}
}

// paperRelation builds the Figure 1 Employee table over domain (0, 100000)
// — the running example of Section 3.1.
func paperRelation(t testing.TB) *relation.Relation {
	rel, err := relation.New(paperSchema(), 0, 100000)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		salary uint64
		id     int64
		name   string
		dept   int64
	}{
		{2000, 5, "A", 1}, {3500, 2, "C", 2}, {8010, 1, "D", 1},
		{12100, 4, "B", 3}, {25000, 3, "E", 2},
	}
	for _, r := range rows {
		_, err := rel.Insert(relation.Tuple{Key: r.salary, Attrs: []relation.Value{
			relation.IntVal(r.id), relation.StringVal(r.name), relation.IntVal(r.dept),
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

func paperParams(t testing.TB, base uint64) Params {
	p, err := NewParams(0, 100000, base)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func buildPaper(t testing.TB, base uint64) (*hashx.Hasher, *SignedRelation) {
	h := hashx.New()
	sr, err := Build(h, signKey(t), paperParams(t, base), paperRelation(t))
	if err != nil {
		t.Fatal(err)
	}
	return h, sr
}

func TestNewParamsValidation(t *testing.T) {
	if _, err := NewParams(10, 10, 2); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := NewParams(10, 11, 2); err == nil {
		t.Error("domain without interior accepted")
	}
	if _, err := NewParams(0, MaxSpan+1, 2); err == nil {
		t.Error("oversized span accepted")
	}
	if _, err := NewParams(0, 100, 1); err == nil {
		t.Error("base 1 accepted")
	}
	if _, err := NewParams(0, 100, 2); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestDeltaArithmetic(t *testing.T) {
	p := paperParams(t, 10)
	// Section 3.1 example: g(2000) = h^{100000-2000-1}(2000).
	if dt, _ := p.deltaT(2000, Up); dt != 97999 {
		t.Errorf("deltaT(2000, Up) = %d, want 97999", dt)
	}
	if dt, _ := p.deltaT(2000, Down); dt != 1999 {
		t.Errorf("deltaT(2000, Down) = %d, want 1999", dt)
	}
	if dc, _ := p.deltaC(10000, Up); dc != 90000 {
		t.Errorf("deltaC(10000, Up) = %d, want 90000", dc)
	}
	if dc, _ := p.deltaC(10000, Down); dc != 10000 {
		t.Errorf("deltaC(10000, Down) = %d, want 10000", dc)
	}
	if _, err := p.deltaT(100000, Up); err == nil {
		t.Error("deltaT at U must fail for Up")
	}
	if _, err := p.deltaT(0, Down); err == nil {
		t.Error("deltaT at L must fail for Down")
	}
	if _, err := p.deltaC(0, Up); err == nil {
		t.Error("bound at L must fail")
	}
	if _, err := p.deltaC(100000, Down); err == nil {
		t.Error("bound at U must fail")
	}
}

func TestBuildShape(t *testing.T) {
	_, sr := buildPaper(t, 10)
	if sr.Len() != 5 {
		t.Fatalf("Len = %d, want 5", sr.Len())
	}
	if sr.Recs[0].Kind != KindDelimLeft || sr.Recs[0].Key() != 0 {
		t.Error("left delimiter malformed")
	}
	if sr.Recs[6].Kind != KindDelimRight || sr.Recs[6].Key() != 100000 {
		t.Error("right delimiter malformed")
	}
	for i := 1; i <= 5; i++ {
		if sr.Recs[i].Kind != KindRecord {
			t.Errorf("entry %d kind = %v", i, sr.Recs[i].Kind)
		}
	}
}

func TestBuildValidates(t *testing.T) {
	h, sr := buildPaper(t, 10)
	if err := sr.Validate(h, signKey(t).Public()); err != nil {
		t.Fatalf("fresh signed relation invalid: %v", err)
	}
}

func TestValidateDetectsTampering(t *testing.T) {
	k := signKey(t)
	cases := []struct {
		name   string
		mutate func(sr *SignedRelation)
	}{
		{"attribute swap", func(sr *SignedRelation) {
			// Swap the names of the first two records (the paper's
			// authenticity example).
			a, b := sr.Own(1), sr.Own(2)
			a.Tuple.Attrs[1], b.Tuple.Attrs[1] = b.Tuple.Attrs[1], a.Tuple.Attrs[1]
		}},
		{"record removal", func(sr *SignedRelation) {
			sr.Recs = append(sr.Recs[:2], sr.Recs[3:]...)
		}},
		{"signature swap", func(sr *SignedRelation) {
			a, b := sr.Own(1), sr.Own(2)
			a.Sig, b.Sig = b.Sig, a.Sig
		}},
		{"key tamper", func(sr *SignedRelation) {
			sr.Own(1).Tuple.Key = 2001
		}},
		{"reorder", func(sr *SignedRelation) {
			sr.Recs[1], sr.Recs[2] = sr.Recs[2], sr.Recs[1]
		}},
		// The components a VO ships in place of G: altered with G and
		// every signature left alone, only re-deriving them catches it.
		{"up chain digest", func(sr *SignedRelation) {
			sr.Own(3).UpCombined = flip(sr.Recs[3].UpCombined)
		}},
		{"down chain digest", func(sr *SignedRelation) {
			sr.Own(3).DownCombined = flip(sr.Recs[3].DownCombined)
		}},
		{"attribute root", func(sr *SignedRelation) {
			sr.Own(3).AttrRoot = flip(sr.Recs[3].AttrRoot)
		}},
		{"delimiter chain digest", func(sr *SignedRelation) {
			sr.Own(0).UpCombined = flip(sr.Recs[0].UpCombined)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h, sr := buildPaper(t, 10)
			c.mutate(sr)
			if err := sr.Validate(h, k.Public()); err == nil {
				t.Fatal("tampered relation validated")
			}
		})
	}
}

func TestRangeIndices(t *testing.T) {
	_, sr := buildPaper(t, 10)
	cases := []struct {
		lo, hi uint64
		a, b   int
	}{
		{1, 9999, 1, 4},      // the Figure 1 query: Salary < 10000
		{2000, 25000, 1, 6},  // whole table
		{4000, 8000, 3, 3},   // empty range between 3500 and 8010
		{25001, 99999, 6, 6}, // beyond the last record
		{1, 1999, 1, 1},      // before the first record
	}
	for _, c := range cases {
		a, b := sr.RangeIndices(c.lo, c.hi)
		if a != c.a || b != c.b {
			t.Errorf("RangeIndices(%d,%d) = (%d,%d), want (%d,%d)", c.lo, c.hi, a, b, c.a, c.b)
		}
	}
}

// TestBoundaryRoundTrip is the heart of the scheme: for every record and
// every legal bound, the boundary proof must reconstruct exactly g(r).
func TestBoundaryRoundTrip(t *testing.T) {
	for _, base := range []uint64{2, 3, 10} {
		h, sr := buildPaper(t, base)
		p := sr.Params
		for idx, rec := range sr.Recs {
			// Up: prove key < bound for every bound > key.
			if rec.Kind != KindDelimRight {
				for _, bound := range []uint64{rec.Key() + 1, rec.Key() + 17, 99999} {
					if bound <= p.L || bound >= p.U {
						continue
					}
					proof, err := sr.ProveBoundary(h, idx, Up, bound)
					if err != nil {
						t.Fatalf("base %d idx %d bound %d up: %v", base, idx, bound, err)
					}
					g, err := VerifyBoundary(h, p, proof, Up, bound)
					if err != nil {
						t.Fatalf("base %d idx %d bound %d up verify: %v", base, idx, bound, err)
					}
					if !g.Equal(rec.G) {
						t.Fatalf("base %d idx %d bound %d up: reconstructed g mismatch", base, idx, bound)
					}
				}
			}
			// Down: prove key > bound for every bound < key.
			if rec.Kind != KindDelimLeft {
				for _, bound := range []uint64{rec.Key() - 1, 1} {
					if bound <= p.L || bound >= p.U {
						continue
					}
					proof, err := sr.ProveBoundary(h, idx, Down, bound)
					if err != nil {
						t.Fatalf("base %d idx %d bound %d down: %v", base, idx, bound, err)
					}
					g, err := VerifyBoundary(h, p, proof, Down, bound)
					if err != nil {
						t.Fatalf("base %d idx %d bound %d down verify: %v", base, idx, bound, err)
					}
					if !g.Equal(rec.G) {
						t.Fatalf("base %d idx %d bound %d down: reconstructed g mismatch", base, idx, bound)
					}
				}
			}
		}
	}
}

// TestBoundaryRefusesFalseClaim checks Section 3.2 Case 1: a proof that a
// key lies outside a bound it actually satisfies cannot be generated.
func TestBoundaryRefusesFalseClaim(t *testing.T) {
	h, sr := buildPaper(t, 10)
	// Record 3 has key 8010. Proving 8010 < 8010 or 8010 < 5000 must fail.
	for _, bound := range []uint64{8010, 5000} {
		if _, err := sr.ProveBoundary(h, 3, Up, bound); err == nil {
			t.Errorf("up proof for false bound %d generated", bound)
		}
	}
	// Proving 8010 > 8010 or 8010 > 9000 must fail.
	for _, bound := range []uint64{8010, 9000} {
		if _, err := sr.ProveBoundary(h, 3, Down, bound); err == nil {
			t.Errorf("down proof for false bound %d generated", bound)
		}
	}
	// Boundary exactly adjacent (key = bound-1 for Up) is legal.
	if _, err := sr.ProveBoundary(h, 3, Up, 8011); err != nil {
		t.Errorf("tight up proof rejected: %v", err)
	}
	if _, err := sr.ProveBoundary(h, 3, Down, 8009); err != nil {
		t.Errorf("tight down proof rejected: %v", err)
	}
}

// TestBoundaryProofDoesNotLeakKey: the proof for a hidden boundary must
// not contain the raw key encoding anywhere.
func TestBoundaryProofDoesNotLeakKey(t *testing.T) {
	h, sr := buildPaper(t, 10)
	proof, err := sr.ProveBoundary(h, 3, Up, 10000) // key 8010 hidden
	if err != nil {
		t.Fatal(err)
	}
	// All transmitted digests are Hasher.Size() wide — none is the 8-byte
	// key — and reconstructing requires only bound-derived exponents.
	for _, d := range proof.Chain.Intermediates {
		if len(d) != h.Size() {
			t.Fatal("intermediate digest has unexpected width")
		}
	}
}

// repRoots rebuilds the two representation-tree roots EntryG folds in,
// which a format-0 VO shipped per result entry. A delimiter's missing
// direction is nil.
func repRoots(t *testing.T, h *hashx.Hasher, p Params, rec *SignedRecord) (up, down hashx.Digest) {
	t.Helper()
	for _, dir := range []Direction{Up, Down} {
		if (dir == Down && rec.Kind == KindDelimLeft) || (dir == Up && rec.Kind == KindDelimRight) {
			continue
		}
		side, err := buildChainSide(h, p, rec.Key(), dir)
		if err != nil {
			t.Fatal(err)
		}
		if dir == Up {
			up = side.repTree.Root()
		} else {
			down = side.repTree.Root()
		}
	}
	return up, down
}

func TestEntryGMatchesOwner(t *testing.T) {
	for _, base := range []uint64{2, 10} {
		h, sr := buildPaper(t, base)
		for i := 1; i <= sr.Len(); i++ {
			rec := sr.Recs[i]
			up, down := repRoots(t, h, sr.Params, rec)
			g, err := EntryG(h, sr.Params, rec.Key(), rec.Kind, up, down, rec.AttrRoot)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Equal(rec.G) {
				t.Fatalf("base %d entry %d: EntryG mismatch", base, i)
			}
		}
		// Delimiters too.
		for _, i := range []int{0, len(sr.Recs) - 1} {
			rec := sr.Recs[i]
			up, down := repRoots(t, h, sr.Params, rec)
			g, err := EntryG(h, sr.Params, rec.Key(), rec.Kind, up, down, rec.AttrRoot)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Equal(rec.G) {
				t.Fatalf("base %d delimiter %d: EntryG mismatch", base, i)
			}
		}
	}
}

func TestEntryGWrongKindRejected(t *testing.T) {
	h, sr := buildPaper(t, 10)
	rec := sr.Recs[1]
	// Claiming a data record is a delimiter must change g (the kind byte
	// is bound into the digest).
	up, down := repRoots(t, h, sr.Params, rec)
	g, err := EntryG(h, sr.Params, rec.Key(), KindDelimLeft, up, down, rec.AttrRoot)
	if err != nil {
		t.Fatal(err)
	}
	if g.Equal(rec.G) {
		t.Fatal("kind byte not bound into g")
	}
}

func TestSigChainVerifies(t *testing.T) {
	h, sr := buildPaper(t, 10)
	pub := signKey(t).Public()
	for i := range sr.Recs {
		var prev, next hashx.Digest
		if i > 0 {
			prev = sr.Recs[i-1].G
		}
		if i < len(sr.Recs)-1 {
			next = sr.Recs[i+1].G
		}
		d := SigDigestFor(h, sr.Params, prev, sr.Recs[i].G, next)
		if !pub.Verify(d, sr.Recs[i].Sig) {
			t.Fatalf("signature %d does not verify via SigDigestFor", i)
		}
	}
}

func TestInsertMaintainsInvariants(t *testing.T) {
	h, sr := buildPaper(t, 10)
	k := signKey(t)
	resigned, err := sr.Insert(h, k, relation.Tuple{Key: 9000, Attrs: []relation.Value{
		relation.IntVal(9), relation.StringVal("F"), relation.IntVal(1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resigned != 3 {
		t.Fatalf("insert re-signed %d entries, want 3", resigned)
	}
	if sr.Len() != 6 {
		t.Fatalf("Len = %d, want 6", sr.Len())
	}
	if err := sr.Validate(h, k.Public()); err != nil {
		t.Fatalf("relation invalid after insert: %v", err)
	}
}

func TestInsertDuplicateKeys(t *testing.T) {
	h, sr := buildPaper(t, 10)
	k := signKey(t)
	for i := 0; i < 3; i++ {
		if _, err := sr.Insert(h, k, relation.Tuple{Key: 8010, Attrs: []relation.Value{
			relation.IntVal(int64(100 + i)), relation.StringVal("dup"), relation.IntVal(1),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sr.Validate(h, k.Public()); err != nil {
		t.Fatalf("relation invalid after duplicate inserts: %v", err)
	}
	// All four records with key 8010 must have distinct row ids and
	// distinct g digests (the MHT(r.A) disambiguation of Section 4.1).
	var gs []hashx.Digest
	for _, rec := range sr.Recs {
		if rec.Kind == KindRecord && rec.Key() == 8010 {
			gs = append(gs, rec.G)
		}
	}
	if len(gs) != 4 {
		t.Fatalf("found %d records with key 8010, want 4", len(gs))
	}
	for i := range gs {
		for j := i + 1; j < len(gs); j++ {
			if gs[i].Equal(gs[j]) {
				t.Fatal("duplicate-key records share a g digest")
			}
		}
	}
}

func TestDeleteMaintainsInvariants(t *testing.T) {
	h, sr := buildPaper(t, 10)
	k := signKey(t)
	resigned, err := sr.Delete(h, k, 8010, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resigned != 2 {
		t.Fatalf("delete re-signed %d entries, want 2", resigned)
	}
	if err := sr.Validate(h, k.Public()); err != nil {
		t.Fatalf("relation invalid after delete: %v", err)
	}
	if _, err := sr.Delete(h, k, 8010, 0); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestUpdateAttrsMaintainsInvariants(t *testing.T) {
	h, sr := buildPaper(t, 10)
	k := signKey(t)
	resigned, err := sr.UpdateAttrs(h, k, 3500, 0, []relation.Value{
		relation.IntVal(2), relation.StringVal("C2"), relation.IntVal(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resigned != 3 {
		t.Fatalf("update re-signed %d entries, want 3", resigned)
	}
	if err := sr.Validate(h, k.Public()); err != nil {
		t.Fatalf("relation invalid after update: %v", err)
	}
	if _, err := sr.UpdateAttrs(h, k, 4444, 0, sr.Recs[1].Tuple.Attrs); err == nil {
		t.Fatal("update of missing record succeeded")
	}
}

// TestMutationsAtEdgePositions exercises inserts, deletes and updates
// adjacent to the delimiters, where re-signing must include a delimiter
// and the virtual end digests come into play.
func TestMutationsAtEdgePositions(t *testing.T) {
	h, sr := buildPaper(t, 10)
	k := signKey(t)
	attrs := []relation.Value{relation.IntVal(9), relation.StringVal("X"), relation.IntVal(1)}

	// Insert below the current minimum (next to the left delimiter).
	if _, err := sr.Insert(h, k, relation.Tuple{Key: 100, Attrs: attrs}); err != nil {
		t.Fatal(err)
	}
	// Insert above the current maximum (next to the right delimiter).
	if _, err := sr.Insert(h, k, relation.Tuple{Key: 99000, Attrs: attrs}); err != nil {
		t.Fatal(err)
	}
	if err := sr.Validate(h, k.Public()); err != nil {
		t.Fatalf("invalid after edge inserts: %v", err)
	}
	// Update the first and last data records.
	for _, idx := range []int{1, sr.Len()} {
		rec := sr.Recs[idx]
		if _, err := sr.UpdateAttrs(h, k, rec.Key(), rec.Tuple.RowID, attrs); err != nil {
			t.Fatal(err)
		}
	}
	if err := sr.Validate(h, k.Public()); err != nil {
		t.Fatalf("invalid after edge updates: %v", err)
	}
	// Delete first and last data records.
	first, last := sr.Recs[1], sr.Recs[sr.Len()]
	if _, err := sr.Delete(h, k, first.Key(), first.Tuple.RowID); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Delete(h, k, last.Key(), last.Tuple.RowID); err != nil {
		t.Fatal(err)
	}
	if err := sr.Validate(h, k.Public()); err != nil {
		t.Fatalf("invalid after edge deletes: %v", err)
	}
}

// TestDrainToEmptyAndRefill deletes every record and rebuilds — the
// delimiter pair must stay consistent throughout.
func TestDrainToEmptyAndRefill(t *testing.T) {
	h, sr := buildPaper(t, 10)
	k := signKey(t)
	for sr.Len() > 0 {
		rec := sr.Recs[1]
		if _, err := sr.Delete(h, k, rec.Key(), rec.Tuple.RowID); err != nil {
			t.Fatal(err)
		}
	}
	if err := sr.Validate(h, k.Public()); err != nil {
		t.Fatalf("invalid when drained: %v", err)
	}
	attrs := []relation.Value{relation.IntVal(1), relation.StringVal("r"), relation.IntVal(1)}
	for _, key := range []uint64{500, 100, 900} {
		if _, err := sr.Insert(h, k, relation.Tuple{Key: key, Attrs: attrs}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sr.Validate(h, k.Public()); err != nil {
		t.Fatalf("invalid after refill: %v", err)
	}
	if sr.Len() != 3 {
		t.Fatalf("Len = %d", sr.Len())
	}
}

func TestEmptyRelation(t *testing.T) {
	h := hashx.New()
	rel, err := relation.New(paperSchema(), 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Build(h, signKey(t), mustParams(t, 0, 1000, 2), rel)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Len() != 0 || len(sr.Recs) != 2 {
		t.Fatalf("empty relation shape wrong: %d recs", len(sr.Recs))
	}
	if err := sr.Validate(h, signKey(t).Public()); err != nil {
		t.Fatalf("empty signed relation invalid: %v", err)
	}
	// Both delimiter boundary proofs must work: they are how an empty
	// query result over an empty table is proven complete.
	pl, err := sr.ProveBoundary(h, 0, Up, 500)
	if err != nil {
		t.Fatal(err)
	}
	if g, err := VerifyBoundary(h, sr.Params, pl, Up, 500); err != nil || !g.Equal(sr.Recs[0].G) {
		t.Fatalf("left delimiter boundary failed: %v", err)
	}
	pr, err := sr.ProveBoundary(h, 1, Down, 500)
	if err != nil {
		t.Fatal(err)
	}
	if g, err := VerifyBoundary(h, sr.Params, pr, Down, 500); err != nil || !g.Equal(sr.Recs[1].G) {
		t.Fatalf("right delimiter boundary failed: %v", err)
	}
}

func mustParams(t testing.TB, l, u, b uint64) Params {
	t.Helper()
	p, err := NewParams(l, u, b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLinearMatchesOptimizedAcceptance cross-checks the conceptual scheme
// against the optimized one on a small domain: both must accept exactly
// the same (key, bound, direction) combinations.
func TestLinearMatchesOptimizedAcceptance(t *testing.T) {
	h := hashx.New()
	p := mustParams(t, 0, 64, 2)
	for key := uint64(1); key < 64; key++ {
		for bound := uint64(1); bound < 64; bound++ {
			_, linErr := LinearProve(h, p, key, Up, bound)
			var optErr error
			if key < p.U {
				_, optErr = proveSide(h, p, key, Up, bound)
			}
			if (linErr == nil) != (optErr == nil) {
				t.Fatalf("key %d bound %d: linear err=%v optimized err=%v", key, bound, linErr, optErr)
			}
		}
	}
}

func TestLinearRoundTrip(t *testing.T) {
	h := hashx.New()
	p := mustParams(t, 0, 1000, 2)
	g, err := LinearG(h, p, 123, Up)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := LinearProve(h, p, 123, Up, 400)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LinearExtend(h, p, inter, Up, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(g) {
		t.Fatal("linear chain round trip failed")
	}
	// A bound the key does not satisfy must be unprovable.
	if _, err := LinearProve(h, p, 123, Up, 100); err == nil {
		t.Fatal("linear proof for false claim generated")
	}
}

// TestBoundaryRandomised fuzzes boundary proofs over random relations,
// bounds and bases.
func TestBoundaryRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	k := signKey(t)
	for trial := 0; trial < 6; trial++ {
		base := []uint64{2, 3, 5, 10}[rng.Intn(4)]
		span := uint64(1<<uint(10+rng.Intn(10))) + uint64(rng.Intn(1000))
		p := mustParams(t, 0, span, base)
		rel, err := relation.New(paperSchema(), 0, span)
		if err != nil {
			t.Fatal(err)
		}
		n := 10 + rng.Intn(30)
		for i := 0; i < n; i++ {
			key := uint64(rng.Int63n(int64(span-2))) + 1
			rel.Insert(relation.Tuple{Key: key, Attrs: []relation.Value{
				relation.IntVal(int64(i)), relation.StringVal("r"), relation.IntVal(int64(i % 3)),
			}})
		}
		h := hashx.New()
		sr, err := Build(h, k, p, rel)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 40; probe++ {
			idx := rng.Intn(len(sr.Recs))
			rec := sr.Recs[idx]
			dir := Direction(rng.Intn(2))
			if (rec.Kind == KindDelimLeft && dir == Down) || (rec.Kind == KindDelimRight && dir == Up) {
				continue
			}
			bound := uint64(rng.Int63n(int64(span-2))) + 1
			proof, err := sr.ProveBoundary(h, idx, dir, bound)
			outside := (dir == Up && rec.Key() < bound) || (dir == Down && rec.Key() > bound)
			if !outside {
				if err == nil {
					t.Fatalf("trial %d: proof generated for false claim (key %d, bound %d, %v)", trial, rec.Key(), bound, dir)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			g, err := VerifyBoundary(h, p, proof, dir, bound)
			if err != nil {
				t.Fatalf("trial %d verify: %v", trial, err)
			}
			if !g.Equal(rec.G) {
				t.Fatalf("trial %d: g mismatch", trial)
			}
			// Verifying against a *different* bound must not reproduce g.
			other := bound + 1
			if other < span && ((dir == Up && rec.Key() < other) || (dir == Down && rec.Key() > other)) {
				if g2, err := VerifyBoundary(h, p, proof, dir, other); err == nil && g2.Equal(rec.G) {
					t.Fatalf("trial %d: proof for bound %d verified under bound %d", trial, bound, other)
				}
			}
		}
	}
}

// TestChainProofTamperRejected mutates every field of a valid chain proof
// and checks the reconstructed g no longer matches.
func TestChainProofTamperRejected(t *testing.T) {
	h, sr := buildPaper(t, 10)
	p := sr.Params
	proof, err := sr.ProveBoundary(h, 3, Up, 10000)
	if err != nil {
		t.Fatal(err)
	}
	want := sr.Recs[3].G
	mutations := []struct {
		name string
		fn   func(bp *BoundaryProof)
	}{
		{"flip intermediate", func(bp *BoundaryProof) { bp.Chain.Intermediates[0][0] ^= 1 }},
		{"flip other combined", func(bp *BoundaryProof) { bp.OtherCombined[0] ^= 1 }},
		{"flip attr root", func(bp *BoundaryProof) { bp.AttrRoot[0] ^= 1 }},
		{"claim delimiter", func(bp *BoundaryProof) { bp.Kind = KindDelimLeft }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			clone := proof
			clone.Chain.Intermediates = make([]hashx.Digest, len(proof.Chain.Intermediates))
			for i, d := range proof.Chain.Intermediates {
				clone.Chain.Intermediates[i] = d.Clone()
			}
			clone.OtherCombined = proof.OtherCombined.Clone()
			clone.AttrRoot = proof.AttrRoot.Clone()
			m.fn(&clone)
			g, err := VerifyBoundary(h, p, clone, Up, 10000)
			if err == nil && g.Equal(want) {
				t.Fatal("tampered proof reconstructed the correct g")
			}
		})
	}
}

func TestVerifyBoundaryShapeChecks(t *testing.T) {
	h, sr := buildPaper(t, 10)
	p := sr.Params
	proof, err := sr.ProveBoundary(h, 3, Up, 10000)
	if err != nil {
		t.Fatal(err)
	}
	// Truncated intermediates.
	bad := proof
	bad.Chain.Intermediates = proof.Chain.Intermediates[:2]
	if _, err := VerifyBoundary(h, p, bad, Up, 10000); err == nil {
		t.Error("truncated intermediates accepted")
	}
	// Wrong direction for a delimiter kind.
	dl, err := sr.ProveBoundary(h, 0, Up, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyBoundary(h, p, dl, Down, 10000); err == nil {
		t.Error("left delimiter accepted as upper bound")
	}
	// Out-of-domain bound.
	if _, err := VerifyBoundary(h, p, proof, Up, 0); err == nil {
		t.Error("bound at L accepted")
	}
}

func TestRecordClone(t *testing.T) {
	_, sr := buildPaper(t, 10)
	orig := sr.Recs[1]
	cl := orig.Clone()
	cl.G[0] ^= 0xff
	cl.Sig[0] ^= 0xff
	cl.Tuple.Attrs[1] = relation.StringVal("zzz")
	if orig.G[0] == cl.G[0] || orig.Sig[0] == cl.Sig[0] {
		t.Fatal("Clone aliased digests")
	}
	if orig.Tuple.Attrs[1].Str == "zzz" {
		t.Fatal("Clone aliased tuple")
	}
}
