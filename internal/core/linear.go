package core

import "vcqr/internal/hashx"

// This file keeps the digest of the *conceptual* scheme of Section 3.1 —
// formula (2), g(r) = h^{U-r-1}(r) with a single hash chain linear in the
// domain span — without the Section 5.1 base-B optimization. The paper
// notes it is prohibitively slow for realistic domains (2^32 hashes per
// digest for a four-byte key, "almost 60 hours"); it is retained as a
// reference: the tests cross-check the optimized scheme against the
// linear chain (linear_ref_test.go holds its prove and extend sides),
// and the E7 ablation measures how much Section 5.1 buys at increasing
// domain sizes.

// LinearG computes the conceptual digest g(key) = h^{delta_t}(key) in the
// given direction: delta_t = U-key-1 (Up) or key-L-1 (Down).
func LinearG(h *hashx.Hasher, p Params, key uint64, dir Direction) (hashx.Digest, error) {
	dt, err := p.deltaT(key, dir)
	if err != nil {
		return nil, err
	}
	return h.Iterate(linearPreimage(key, dir), dt), nil
}

// linearPreimage domain-separates the conceptual chains from the base-B
// digit chains and from each other by direction.
func linearPreimage(key uint64, dir Direction) []byte {
	return hashx.U64Pair(key, uint64(dir)|0x8000000000000000)
}
