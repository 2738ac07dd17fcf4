package basep

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustParams(t *testing.T, b, span uint64) Params {
	t.Helper()
	p, err := NewParams(b, span)
	if err != nil {
		t.Fatalf("NewParams(%d, %d): %v", b, span, err)
	}
	return p
}

func TestNewParamsDigitCounts(t *testing.T) {
	cases := []struct {
		b, span uint64
		digits  int
	}{
		{2, 1, 1},
		{2, 2, 2},
		{2, 255, 8},
		{2, 256, 9},
		{2, 1 << 32, 33},
		{10, 9, 1},
		{10, 10, 2},
		{10, 99999, 5},
		{10, 100000, 6},
		{16, 1 << 32, 9},
	}
	for _, c := range cases {
		p := mustParams(t, c.b, c.span)
		if p.Digits != c.digits {
			t.Errorf("NewParams(%d, %d).Digits = %d, want %d", c.b, c.span, p.Digits, c.digits)
		}
		// Every delta in [0, span) must be representable canonically.
		if _, err := Canonical(p, c.span-1); err != nil {
			t.Errorf("Canonical(B=%d span=%d, max delta): %v", c.b, c.span, err)
		}
	}
}

func TestNewParamsBadBase(t *testing.T) {
	if _, err := NewParams(1, 100); err != ErrBase {
		t.Errorf("base 1 should fail with ErrBase, got %v", err)
	}
	if _, err := NewParams(0, 100); err != ErrBase {
		t.Errorf("base 0 should fail with ErrBase, got %v", err)
	}
}

func TestNewParamsFullUint64(t *testing.T) {
	p := mustParams(t, 2, ^uint64(0))
	if p.Digits != 64 {
		t.Fatalf("full-domain binary needs 64 digits, got %d", p.Digits)
	}
	r, err := Canonical(p, ^uint64(0))
	if err != nil {
		t.Fatalf("Canonical(max uint64): %v", err)
	}
	if r.Value() != ^uint64(0) {
		t.Fatal("round trip of max uint64 failed")
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	f := func(delta uint32, b8 uint8) bool {
		b := uint64(b8%9) + 2 // base in [2, 10]
		p, err := NewParams(b, 1<<32)
		if err != nil {
			return false
		}
		r, err := Canonical(p, uint64(delta))
		if err != nil {
			return false
		}
		return r.Value() == uint64(delta) && r.IsCanonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCanonicalOverflow(t *testing.T) {
	p := Params{B: 10, Digits: 3} // representable: 0..999
	if _, err := Canonical(p, 999); err != nil {
		t.Errorf("999 should fit in 3 decimal digits: %v", err)
	}
	if _, err := Canonical(p, 1000); err != ErrOverflow {
		t.Errorf("1000 should overflow 3 decimal digits, got %v", err)
	}
}

func TestPreferredPreservesValue(t *testing.T) {
	// Every *valid* preferred representation must stand for the same delta.
	p := mustParams(t, 10, 100000)
	canon, _ := Canonical(p, 5555)
	for i := 0; i < p.M(); i++ {
		rep, valid := Preferred(canon, i)
		if !valid {
			continue
		}
		if rep.Value() != 5555 {
			t.Errorf("preferred rep %d stands for %d, want 5555", i, rep.Value())
		}
		if rep.IsCanonical() {
			t.Errorf("preferred rep %d should be non-canonical", i)
		}
	}
}

func TestPreferredPaperExample(t *testing.T) {
	// Section 5.1 running example: deltaT = 5555 in base 10, the publisher
	// returns digits corresponding to 5555 = 15 + 14*10 + 14*100 + 4*1000
	// (preferred representation at index 2) when deltaC = 2828.
	p := Params{B: 10, Digits: 4}
	canon, _ := Canonical(p, 5555)
	rep, valid := Preferred(canon, 2)
	if !valid {
		t.Fatal("rep 2 of 5555 must be valid")
	}
	want := []uint64{15, 14, 14, 4}
	for i, d := range want {
		if rep.Digits[i] != d {
			t.Fatalf("rep 2 digits = %v, want %v", rep.Digits, want)
		}
	}
}

func TestPreferredInvalid(t *testing.T) {
	// deltaT = 3 + 2B + 0B^2 + 3B^3: representation 1 is invalid because
	// digit 2 would become -1 (the paper's own example of invalidity).
	p := Params{B: 10, Digits: 4}
	canon, _ := Canonical(p, 3+2*10+0*100+3*1000)
	rep, valid := Preferred(canon, 1)
	if valid {
		t.Fatal("representation 1 must be invalid when digit 2 is 0")
	}
	if rep.Digits[2] != InvalidDigit {
		t.Fatal("invalid representation must mark the undefined digit")
	}
	// Representation 0 borrows from digit 1 (=2) and is valid.
	if _, valid := Preferred(canon, 0); !valid {
		t.Fatal("representation 0 must be valid when digit 1 > 0")
	}
}

func TestPreferredIndexPanics(t *testing.T) {
	p := Params{B: 10, Digits: 4}
	canon, _ := Canonical(p, 5555)
	for _, idx := range []int{-1, 3, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Preferred(canon, %d) should panic", idx)
				}
			}()
			Preferred(canon, idx)
		}()
	}
}

func TestSelectCanonicalFastPath(t *testing.T) {
	// deltaT = 5555, deltaC = 4321: digits dominate (5>=1,5>=2,5>=3,5>=4).
	p := Params{B: 10, Digits: 4}
	sel, err := Select(p, 5555, 4321)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Canonical || sel.Index != -1 {
		t.Fatalf("expected canonical selection, got %+v", sel)
	}
	wantE := []uint64{4, 3, 2, 1}
	for i := range wantE {
		if sel.DeltaE[i] != wantE[i] {
			t.Fatalf("DeltaE = %v, want %v", sel.DeltaE, wantE)
		}
	}
}

func TestSelectPaperExample(t *testing.T) {
	// Section 5.1: deltaT = 5555, deltaC = 2828. Canonical digits of
	// deltaC are (8,2,8,2); digit 0 and digit 2 exceed deltaT's, so a
	// non-canonical representation is required. The publisher should use a
	// representation under which deltaE is non-negative everywhere.
	p := Params{B: 10, Digits: 4}
	sel, err := Select(p, 5555, 2828)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Canonical {
		t.Fatal("canonical representation cannot dominate (8,2,8,2)")
	}
	if sel.DeltaT.Value() != 5555 {
		t.Fatalf("selected representation stands for %d, want 5555", sel.DeltaT.Value())
	}
	var sum, pow uint64 = 0, 1
	for i, e := range sel.DeltaE {
		sum += e * pow
		if i < len(sel.DeltaE)-1 {
			pow *= 10
		}
	}
	if sum != 5555-2828 {
		t.Fatalf("deltaE stands for %d, want %d", sum, 5555-2828)
	}
	// The paper picks imax = 2 here: 5+5*10+5*100 = 555 < 828+2*10+8*100 = ...
	// prefix at i=2: deltaT 555 vs deltaC 828 -> deficient; at i=3 equal
	// values 5555 vs 2828 -> not deficient. So Index must be 2.
	if sel.Index != 2 {
		t.Errorf("Index = %d, want 2", sel.Index)
	}
}

func TestSelectOrderError(t *testing.T) {
	p := Params{B: 10, Digits: 4}
	if _, err := Select(p, 100, 101); err != ErrOrder {
		t.Fatalf("deltaC > deltaT must fail with ErrOrder, got %v", err)
	}
}

func TestSelectEqualDeltas(t *testing.T) {
	p := Params{B: 10, Digits: 4}
	sel, err := Select(p, 2828, 2828)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sel.DeltaE {
		if e != 0 {
			t.Fatalf("equal deltas must give all-zero DeltaE, got %v", sel.DeltaE)
		}
	}
}

func TestSelectZero(t *testing.T) {
	p := Params{B: 2, Digits: 8}
	sel, err := Select(p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Canonical {
		t.Fatal("0/0 must select canonical")
	}
}

// TestSelectLemma is the property-based check of the paper's lemma: for
// every 0 <= deltaC <= deltaT there exists a valid representation of
// deltaT whose digitwise difference from canonical deltaC is non-negative,
// and Select finds it.
func TestSelectLemma(t *testing.T) {
	bases := []uint64{2, 3, 4, 7, 10, 16}
	rng := rand.New(rand.NewSource(42))
	for _, b := range bases {
		p, err := NewParams(b, 1<<32)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 2000; trial++ {
			dt := rng.Uint64() % (1 << 32)
			dc := rng.Uint64() % (dt + 1)
			sel, err := Select(p, dt, dc)
			if err != nil {
				t.Fatalf("B=%d deltaT=%d deltaC=%d: %v", b, dt, dc, err)
			}
			if got := sel.DeltaT.Value(); got != dt {
				t.Fatalf("B=%d: representation value %d != deltaT %d", b, got, dt)
			}
			// deltaE digits must reconstruct deltaT when the user adds
			// canonical deltaC digits.
			for i := range sel.DeltaE {
				if sel.DeltaE[i]+sel.DeltaC.Digits[i] != sel.DeltaT.Digits[i] {
					t.Fatalf("B=%d: digit %d: deltaE+deltaC != deltaT", b, i)
				}
			}
			// Digit bounds from the lemma's proof: deltaE_0 < 2B, others
			// < 2B-1 (non-canonical case) or < B (canonical case).
			for i, e := range sel.DeltaE {
				if e >= 2*b {
					t.Fatalf("B=%d: deltaE[%d]=%d out of bound 2B", b, i, e)
				}
			}
		}
	}
}

func TestSelectExhaustiveSmallDomain(t *testing.T) {
	// Exhaustive verification over a small domain: every (deltaT, deltaC)
	// pair with deltaC <= deltaT < 625 in base 5.
	p, err := NewParams(5, 625)
	if err != nil {
		t.Fatal(err)
	}
	for dt := uint64(0); dt < 625; dt++ {
		for dc := uint64(0); dc <= dt; dc++ {
			sel, err := Select(p, dt, dc)
			if err != nil {
				t.Fatalf("deltaT=%d deltaC=%d: %v", dt, dc, err)
			}
			if sel.DeltaT.Value() != dt {
				t.Fatalf("deltaT=%d deltaC=%d: wrong representation", dt, dc)
			}
		}
	}
}

// TestUserExponents: the user's per-digit extra iterations are the
// canonical digits of deltaC, the only representation arithmetic the
// user performs.
func TestUserExponents(t *testing.T) {
	p := Params{B: 10, Digits: 4}
	exp, err := Canonical(p, 2828)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{8, 2, 8, 2}
	for i := range want {
		if exp.Digits[i] != want[i] {
			t.Fatalf("user exponents = %v, want %v", exp.Digits, want)
		}
	}
	if _, err := Canonical(p, 10000); err == nil {
		t.Fatal("out-of-range deltaC must error")
	}
}

func TestRepClone(t *testing.T) {
	p := Params{B: 10, Digits: 4}
	r, _ := Canonical(p, 1234)
	c := r.Clone()
	c.Digits[0] = 99
	if r.Digits[0] == 99 {
		t.Fatal("Clone must not alias digits")
	}
}

func BenchmarkSelect(b *testing.B) {
	p, _ := NewParams(2, 1<<32)
	rng := rand.New(rand.NewSource(1))
	dts := make([]uint64, 1024)
	dcs := make([]uint64, 1024)
	for i := range dts {
		dts[i] = rng.Uint64() % (1 << 32)
		dcs[i] = rng.Uint64() % (dts[i] + 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Select(p, dts[i%1024], dcs[i%1024]); err != nil {
			b.Fatal(err)
		}
	}
}

// IsCanonical reports whether every digit is below B.
func (r Rep) IsCanonical() bool {
	for _, d := range r.Digits {
		if d >= r.Params.B {
			return false
		}
	}
	return true
}
