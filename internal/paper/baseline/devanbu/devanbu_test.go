package devanbu

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

func schema() relation.Schema {
	return relation.Schema{
		Name:    "Emp",
		KeyName: "Salary",
		Cols: []relation.Column{
			{Name: "Name", Type: relation.TypeString},
			{Name: "Photo", Type: relation.TypeBytes},
		},
	}
}

func buildTable(t testing.TB, keys []uint64) (*hashx.Hasher, *SignedTable) {
	t.Helper()
	h := hashx.New()
	rel, err := relation.New(schema(), 0, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if _, err := rel.Insert(relation.Tuple{Key: k, Attrs: []relation.Value{
			relation.StringVal(string(rune('A' + i%26))), relation.BytesVal(make([]byte, 32)),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Build(h, signKey(t), rel)
	if err != nil {
		t.Fatal(err)
	}
	return h, st
}

var paperKeys = []uint64{2000, 3500, 8010, 12100, 25000}

func TestQueryRoundTrip(t *testing.T) {
	h, st := buildTable(t, paperKeys)
	pub := signKey(t).Public()
	res, err := st.Query(h, 1, 9999)
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := Verify(h, pub, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 3 {
		t.Fatalf("got %d tuples, want 3", len(tuples))
	}
	// Characteristic (4): the scheme disclosed the 12100 boundary tuple.
	last := res.Tuples[len(res.Tuples)-1]
	if last.Key != 12100 {
		t.Fatalf("boundary tuple key = %d, want 12100 (disclosure characteristic)", last.Key)
	}
}

func TestAllRangesRoundTrip(t *testing.T) {
	h, st := buildTable(t, paperKeys)
	pub := signKey(t).Public()
	cases := []struct {
		lo, hi uint64
		n      int
	}{
		{1, 99999, 5},     // whole table
		{2000, 2000, 1},   // point
		{4000, 8000, 0},   // empty interior
		{30000, 99999, 0}, // beyond last
		{1, 1999, 0},      // before first
		{3500, 12100, 3},  // middle
	}
	for _, c := range cases {
		res, err := st.Query(h, c.lo, c.hi)
		if err != nil {
			t.Fatalf("[%d,%d]: %v", c.lo, c.hi, err)
		}
		tuples, err := Verify(h, pub, res)
		if err != nil {
			t.Fatalf("[%d,%d] verify: %v", c.lo, c.hi, err)
		}
		if len(tuples) != c.n {
			t.Fatalf("[%d,%d]: %d tuples, want %d", c.lo, c.hi, len(tuples), c.n)
		}
	}
}

func TestQueryRangeValidation(t *testing.T) {
	h, st := buildTable(t, paperKeys)
	for _, c := range [][2]uint64{{50, 10}, {0, 10}, {10, 100000}} {
		if _, err := st.Query(h, c[0], c[1]); err == nil {
			t.Errorf("range [%d,%d] accepted", c[0], c[1])
		}
	}
}

func TestOmissionDetected(t *testing.T) {
	h, st := buildTable(t, paperKeys)
	pub := signKey(t).Public()
	res, err := st.Query(h, 1, 9999)
	if err != nil {
		t.Fatal(err)
	}
	// Drop an interior tuple: the range proof no longer matches.
	res.Tuples = append(res.Tuples[:2], res.Tuples[3:]...)
	if _, err := Verify(h, pub, res); err == nil {
		t.Fatal("omitted tuple not detected")
	}
}

func TestBoundaryTrimDetected(t *testing.T) {
	h, st := buildTable(t, paperKeys)
	pub := signKey(t).Public()
	res, err := st.Query(h, 1, 9999)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the last qualifying tuple AND present the range proof of the
	// narrower window, relabelled: the boundary check must catch it.
	inner, err := st.Query(h, 1, 8009)
	if err != nil {
		t.Fatal(err)
	}
	inner.Lo, inner.Hi = res.Lo, res.Hi
	if _, err := Verify(h, pub, inner); err == nil {
		t.Fatal("trimmed result accepted")
	}
}

func TestTamperDetected(t *testing.T) {
	h, st := buildTable(t, paperKeys)
	pub := signKey(t).Public()
	res, err := st.Query(h, 1, 9999)
	if err != nil {
		t.Fatal(err)
	}
	res.Tuples[1].Attrs[0] = relation.StringVal("X")
	if _, err := Verify(h, pub, res); err == nil {
		t.Fatal("tampered value not detected")
	}
}

func TestForgedRootDetected(t *testing.T) {
	h, st := buildTable(t, paperKeys)
	pub := signKey(t).Public()
	res, err := st.Query(h, 1, 9999)
	if err != nil {
		t.Fatal(err)
	}
	res.Root[0] ^= 0xff
	if _, err := Verify(h, pub, res); err == nil {
		t.Fatal("forged root not detected")
	}
}

func TestUpdatePropagatesToRoot(t *testing.T) {
	h, st := buildTable(t, paperKeys)
	k := signKey(t)
	oldRoot := st.Root().Clone()
	work, err := st.Update(h, k, 2, relation.Tuple{Key: 8010, Attrs: []relation.Value{
		relation.StringVal("updated"), relation.BytesVal(nil),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if work < 2 {
		t.Fatalf("update touched %d nodes; root propagation expected", work)
	}
	if st.Root().Equal(oldRoot) {
		t.Fatal("root unchanged after update")
	}
	// Queries still verify after the update.
	res, err := st.Query(h, 1, 9999)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(h, k.Public(), res); err != nil {
		t.Fatalf("verify after update: %v", err)
	}
}

func TestVOBytesGrowWithTableSize(t *testing.T) {
	// Characteristic (2): VO grows logarithmically with table size.
	h1, st1 := buildTable(t, paperKeys)
	rng := rand.New(rand.NewSource(5))
	big := make([]uint64, 1000)
	seen := map[uint64]bool{}
	for i := range big {
		for {
			k := uint64(rng.Intn(99998)) + 1
			if !seen[k] {
				seen[k] = true
				big[i] = k
				break
			}
		}
	}
	h2, st2 := buildTable(t, big)
	r1, err := st1.Query(h1, 40000, 40001)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := st2.Query(h2, 40000, 40001)
	if err != nil {
		t.Fatal(err)
	}
	b1 := r1.VOBytes(h1.Size(), signKey(t).Public().SigBytes())
	b2 := r2.VOBytes(h2.Size(), signKey(t).Public().SigBytes())
	if b2 <= b1 {
		t.Fatalf("VO bytes did not grow with table size: %d vs %d", b1, b2)
	}
}

func TestEmptyTable(t *testing.T) {
	h, st := buildTable(t, nil)
	pub := signKey(t).Public()
	res, err := st.Query(h, 1, 99999)
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := Verify(h, pub, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 0 {
		t.Fatalf("empty table returned %d tuples", len(tuples))
	}
}
