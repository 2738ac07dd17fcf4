package core

import (
	"fmt"

	"vcqr/internal/hashx"
)

// The prove and extend sides of formula (2)'s linear chain, which only
// the tests use: TestLinearMatchesOptimizedAcceptance holds the base-B
// boundary proofs to LinearProve's accept/reject answers, and
// TestLinearRoundTrip closes the chain against LinearG.

// LinearProve computes the intermediate digest the publisher releases to
// show key lies outside bound: h^{delta_e}(key) with
// delta_e = bound-key-1 (Up, proves key < bound) or key-bound-1 (Down,
// proves key > bound). When the condition is false the required exponent
// is negative — undefined — and ErrNotOutside is returned; this is the
// whole security argument of Section 3.2, Case 1.
func LinearProve(h *hashx.Hasher, p Params, key uint64, dir Direction, bound uint64) (hashx.Digest, error) {
	dt, err := p.deltaT(key, dir)
	if err != nil {
		return nil, err
	}
	dc, err := p.deltaC(bound, dir)
	if err != nil {
		return nil, err
	}
	if dt < dc {
		return nil, fmt.Errorf("%w: key %d vs bound %d (%s)", ErrNotOutside, key, bound, dir)
	}
	return h.Iterate(linearPreimage(key, dir), dt-dc), nil
}

// LinearExtend performs the user's side: extend the publisher's
// intermediate digest by delta_c = U-bound (Up) or bound-L (Down) steps,
// yielding the candidate g digest to compare against the signed value.
func LinearExtend(h *hashx.Hasher, p Params, intermediate hashx.Digest, dir Direction, bound uint64) (hashx.Digest, error) {
	dc, err := p.deltaC(bound, dir)
	if err != nil {
		return nil, err
	}
	return h.IterateFrom(intermediate, dc), nil
}
