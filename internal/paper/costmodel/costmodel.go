// Package costmodel implements the analytic cost model of Section 6:
// formula (4) for the authentication traffic Muser, formula (5) for the
// user computation cost Cuser, and the Table 1 parameters. The benchmark
// harness evaluates the model at the paper's constants (Chash = 50 us,
// Csign = 5 ms, Mdigest = 128 bits, Msign = 1024 bits) to regenerate
// Figures 9 and 10, and at measured constants to compare against the
// implementation.
package costmodel

import (
	"math"
	"time"
)

// Params carries the Table 1 parameters.
type Params struct {
	Chash   time.Duration // cost of one hash operation
	Csign   time.Duration // cost of one signature verification
	Mdigest int           // digest size in bits
	Msign   int           // signature size in bits
	B       uint64        // number base of the Section 5.1 optimization
	Span    uint64        // key domain span U - L
}

// PaperDefaults returns the constants the paper uses (Table 1, with a
// 32-bit integer key domain as in Section 6.2).
func PaperDefaults() Params {
	return Params{
		Chash:   50 * time.Microsecond,
		Csign:   5 * time.Millisecond,
		Mdigest: 128,
		Msign:   1024,
		B:       2,
		Span:    1 << 32,
	}
}

// M returns m = ceil(log_B(span)), the highest digit index.
func (p Params) M() int {
	if p.Span <= 1 || p.B < 2 {
		return 1
	}
	return int(math.Ceil(math.Log(float64(p.Span)) / math.Log(float64(p.B))))
}

// log2ceil returns ceil(log2(m)) with a minimum of 1, matching the
// ceil(log2 m) audit-path terms in Section 6.
func log2ceil(m int) int {
	if m <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(m))))
}

// TrafficBits evaluates formula (4): the authentication traffic to the
// user, in bits, for a greater-than query returning q entries:
//
//	Muser = [m + 4 + 3q + ceil(log2 m)] * Mdigest + Msign
func (p Params) TrafficBits(q int) int {
	m := p.M()
	return (m+4+3*q+log2ceil(m))*p.Mdigest + p.Msign
}

// TrafficBytes is TrafficBits in bytes.
func (p Params) TrafficBytes(q int) int { return p.TrafficBits(q) / 8 }

// TrafficOverhead evaluates the Figure 9 y-axis: Muser divided by the
// result payload (q records of mr bytes), as a fraction (multiply by 100
// for percent).
func (p Params) TrafficOverhead(q, mr int) float64 {
	return float64(p.TrafficBytes(q)) / float64(q*mr)
}

// UserCost evaluates formula (5): the user computation cost for a
// greater-than query with q result entries:
//
//	Cuser = [2q(B(m+1)+2) + B(m+1) + ceil(log2 m) + 3] * Chash + Csign
func (p Params) UserCost(q int) time.Duration {
	m := p.M()
	b := int(p.B)
	hashes := 2*q*(b*(m+1)+2) + b*(m+1) + log2ceil(m) + 3
	return time.Duration(hashes)*p.Chash + p.Csign
}

// UserHashes returns just the hash-operation count of formula (5),
// for comparison with the implementation's measured hash counter.
func (p Params) UserHashes(q int) int {
	m := p.M()
	b := int(p.B)
	return 2*q*(b*(m+1)+2) + b*(m+1) + log2ceil(m) + 3
}

// OptimalB scans bases 2..16 for the B minimizing UserCost at result size
// q — the paper's Figure 10 analysis, which finds the minimum at
// 2 < B < 3 (so B = 2 or 3 in integers).
func (p Params) OptimalB(q int) uint64 {
	best := uint64(2)
	bestCost := time.Duration(math.MaxInt64)
	for b := uint64(2); b <= 16; b++ {
		trial := p
		trial.B = b
		if c := trial.UserCost(q); c < bestCost {
			bestCost = c
			best = b
		}
	}
	return best
}
