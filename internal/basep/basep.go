// Package basep implements the base-B polynomial representations at the
// heart of the Section 5.1 optimization of Pang et al. (SIGMOD 2005).
//
// Any delta in [0, U-L) is written as
//
//	delta = d_0 + d_1*B + d_2*B^2 + ... + d_m*B^m
//
// The canonical representation has 0 <= d_i < B. In addition the scheme
// defines m "preferred non-canonical representations" (one per index
// 0 <= i < m) obtained by borrowing: add B to digit 0, add B-1 to digits
// 1..i, subtract 1 from digit i+1. A representation is valid when every
// digit is non-negative.
//
// The publisher must express delta_t = U-r-1 in a representation whose
// digitwise difference from the canonical representation of delta_c = U-a
// is non-negative everywhere (so that every per-digit hash chain can be
// extended by the user). The paper's lemma guarantees that either the
// canonical representation works, or the preferred representation at
// imax — the largest index whose prefix value falls short of delta_c's
// prefix — does. Select implements that choice.
package basep

import (
	"errors"
	"fmt"
)

// MinBase is the smallest meaningful base. B must exceed 1 for the digit
// decomposition to terminate.
const MinBase = 2

// MaxDigits caps m+1. 64 digits at B=2 covers the full uint64 domain.
const MaxDigits = 64

var (
	// ErrBase reports a base smaller than MinBase.
	ErrBase = errors.New("basep: base must be >= 2")
	// ErrOverflow reports a delta that does not fit in m+1 canonical digits.
	ErrOverflow = errors.New("basep: delta does not fit in the digit budget")
	// ErrOrder reports Select called with deltaC > deltaT.
	ErrOrder = errors.New("basep: deltaC exceeds deltaT")
)

// Params fixes the base B and the number of digits m+1 used for a domain.
// All representations for one signed relation share the same Params.
type Params struct {
	B      uint64 // number base, >= 2
	Digits int    // m+1: number of digit positions (indices 0..m)
}

// NewParams derives Params for a domain span (U - L): the smallest m such
// that B^(m+1) > span, i.e. m = ceil(log_B(span)) as in the paper.
func NewParams(b uint64, span uint64) (Params, error) {
	if b < MinBase {
		return Params{}, ErrBase
	}
	digits := 1
	// Count how many base-b digits span-1 (the largest representable
	// delta) needs. Guard against overflow of pow.
	pow := b
	for digits < MaxDigits {
		if pow > span {
			break
		}
		// pow*b may overflow uint64; detect before multiplying.
		if pow > (^uint64(0))/b {
			digits++
			break
		}
		pow *= b
		digits++
	}
	return Params{B: b, Digits: digits}, nil
}

// M returns m, the highest digit index (Digits-1).
func (p Params) M() int { return p.Digits - 1 }

// Validate checks internal consistency.
func (p Params) Validate() error {
	if p.B < MinBase {
		return ErrBase
	}
	if p.Digits < 1 || p.Digits > MaxDigits {
		return fmt.Errorf("basep: digit count %d out of range [1,%d]", p.Digits, MaxDigits)
	}
	return nil
}

// Rep is a (possibly non-canonical) representation of a delta value:
// Digits[i] is the coefficient of B^i. Representation digits are always
// non-negative here; invalid preferred representations are reported via
// the ok return of Preferred rather than with negative digits.
type Rep struct {
	Params Params
	Digits []uint64
}

// Value returns the delta this representation stands for.
// It panics on overflow, which cannot happen for representations produced
// by this package from in-range deltas.
func (r Rep) Value() uint64 {
	var v, pow uint64 = 0, 1
	for i, d := range r.Digits {
		v += d * pow
		if i < len(r.Digits)-1 {
			pow *= r.Params.B
		}
	}
	return v
}

// Clone returns an independent copy of r.
func (r Rep) Clone() Rep {
	d := make([]uint64, len(r.Digits))
	copy(d, r.Digits)
	return Rep{Params: r.Params, Digits: d}
}

// Canonical returns the canonical base-B representation of delta:
// 0 <= digit < B everywhere.
func Canonical(p Params, delta uint64) (Rep, error) {
	if err := p.Validate(); err != nil {
		return Rep{}, err
	}
	digits := make([]uint64, p.Digits)
	for i := 0; i < p.Digits; i++ {
		digits[i] = delta % p.B
		delta /= p.B
	}
	if delta != 0 {
		return Rep{}, ErrOverflow
	}
	return Rep{Params: p, Digits: digits}, nil
}

// Preferred returns the i-th preferred non-canonical representation of the
// canonical representation canon (0 <= i < m), and whether it is valid.
// When invalid (the borrow would drive digit i+1 negative) the returned
// representation has digit i+1 replaced by the sentinel InvalidDigit; the
// owner still derives a digest for it by dropping the undefined component
// (Section 5.1, "Signature Construction by Owner").
func Preferred(canon Rep, i int) (Rep, bool) {
	m := canon.Params.M()
	if i < 0 || i >= m {
		panic(fmt.Sprintf("basep: preferred index %d out of range [0,%d)", i, m))
	}
	r := canon.Clone()
	b := canon.Params.B
	r.Digits[0] += b
	for j := 1; j <= i; j++ {
		r.Digits[j] += b - 1
	}
	valid := r.Digits[i+1] > 0
	if valid {
		r.Digits[i+1]--
	} else {
		r.Digits[i+1] = InvalidDigit
	}
	return r, valid
}

// InvalidDigit marks the undefined digit position of an invalid preferred
// representation. Digest construction skips this position.
const InvalidDigit = ^uint64(0)

// Selection is the outcome of the publisher's representation choice for a
// boundary record: which representation of deltaT it uses and the
// digitwise exponents deltaE the intermediate digests are iterated to.
type Selection struct {
	// Canonical is true when the canonical representation of deltaT
	// dominates deltaC digitwise and is used directly.
	Canonical bool
	// Index is the preferred-representation index imax when Canonical is
	// false; -1 otherwise.
	Index int
	// DeltaT is the chosen representation of deltaT.
	DeltaT Rep
	// DeltaE holds the per-digit exponents deltaE_i = DeltaT_i - deltaC_i,
	// all non-negative by the paper's lemma. The publisher publishes
	// h^{DeltaE[i]}(r|i); the user extends by deltaC_i.
	DeltaE []uint64
	// DeltaC is the canonical representation of deltaC (the part the user
	// can compute alone).
	DeltaC Rep
}

// Select chooses the representation of deltaT = (chain length for the
// hidden boundary key) that digitwise dominates the canonical
// representation of deltaC = (chain length the user will add). It returns
// ErrOrder when deltaC > deltaT — the situation a *cheating* publisher is
// in, which by design has no solution.
func Select(p Params, deltaT, deltaC uint64) (Selection, error) {
	if deltaC > deltaT {
		return Selection{}, ErrOrder
	}
	ct, err := Canonical(p, deltaT)
	if err != nil {
		return Selection{}, err
	}
	cc, err := Canonical(p, deltaC)
	if err != nil {
		return Selection{}, err
	}
	// Fast path: canonical representation already dominates digitwise.
	if dominates(ct, cc) {
		return Selection{
			Canonical: true,
			Index:     -1,
			DeltaT:    ct,
			DeltaE:    digitDiff(ct, cc),
			DeltaC:    cc,
		}, nil
	}
	// Otherwise pick imax: the largest index whose prefix value of deltaT
	// falls short of deltaC's prefix value, then advance to the first
	// valid preferred representation at or after it (the paper proves one
	// exists because deltaT >= deltaC).
	imax := largestDeficientPrefix(ct, cc)
	if imax < 0 {
		// Cannot happen when dominance failed and deltaT >= deltaC, but
		// guard against arithmetic bugs rather than panicking downstream.
		return Selection{}, fmt.Errorf("basep: internal: no deficient prefix for deltaT=%d deltaC=%d", deltaT, deltaC)
	}
	m := p.M()
	for ; imax < m; imax++ {
		rep, valid := Preferred(ct, imax)
		if !valid {
			continue
		}
		if !dominates(rep, cc) {
			continue
		}
		return Selection{
			Canonical: false,
			Index:     imax,
			DeltaT:    rep,
			DeltaE:    digitDiff(rep, cc),
			DeltaC:    cc,
		}, nil
	}
	return Selection{}, fmt.Errorf("basep: internal: no valid dominating representation for deltaT=%d deltaC=%d (lemma violation)", deltaT, deltaC)
}

// dominates reports whether a's digits are >= b's digits everywhere,
// treating InvalidDigit as absent (never dominating).
func dominates(a, b Rep) bool {
	for i := range a.Digits {
		if a.Digits[i] == InvalidDigit {
			return false
		}
		if a.Digits[i] < b.Digits[i] {
			return false
		}
	}
	return true
}

// digitDiff returns a-b per digit; caller guarantees dominance.
func digitDiff(a, b Rep) []uint64 {
	out := make([]uint64, len(a.Digits))
	for i := range out {
		out[i] = a.Digits[i] - b.Digits[i]
	}
	return out
}

// largestDeficientPrefix returns the largest index i such that
// sum_{j<=i} ct_j B^j < sum_{j<=i} cc_j B^j, or -1 if none.
func largestDeficientPrefix(ct, cc Rep) int {
	imax := -1
	var pt, pc, pow uint64 = 0, 0, 1
	for i := 0; i < len(ct.Digits); i++ {
		pt += ct.Digits[i] * pow
		pc += cc.Digits[i] * pow
		if pt < pc {
			imax = i
		}
		if i < len(ct.Digits)-1 {
			pow *= ct.Params.B
		}
	}
	return imax
}
