package core

import (
	"fmt"

	"vcqr/internal/hashx"
)

// BoundaryProof proves that the entry adjacent to a query result lies
// strictly outside the query range, without revealing its key or
// attribute values (Figure 5 / Figure 8(a)). It carries everything the
// user needs to reconstruct g(boundary) for the signature-chain check:
//
//   - the chain proof in the direction that matters (Up for the left
//     boundary: key < alpha; Down for the right boundary: key > beta),
//   - the opaque combined digest of the *other* chain, and
//   - the opaque root of the attribute tree.
//
// Only digests cross the wire; the boundary record's key and attributes
// stay hidden — the precision property that lets the scheme coexist with
// access control (unlike the Devanbu baseline, which discloses boundary
// tuples).
type BoundaryProof struct {
	// Kind is the entry's class. Delimiter boundaries let the user verify
	// terminal conditions (Section 3.1's "Terminal" requirement).
	Kind Kind
	// Chain is the hidden-key chain proof in the relevant direction.
	Chain ChainProof
	// OtherCombined is the combined digest of the opposite chain, which
	// the verifier folds with the rebuilt one into the chain digest C;
	// unused (and ignored by the verifier) for delimiter kinds.
	OtherCombined hashx.Digest
	// AttrRoot is MHT(r.A) for the boundary record; ignored for
	// delimiters, whose attribute root is a public constant.
	AttrRoot hashx.Digest
}

// Size returns the digest count of the proof (traffic accounting).
func (bp BoundaryProof) Size() int {
	n := bp.Chain.Size()
	if bp.Kind == KindRecord {
		n += 2 // other-side combined digest + attribute root
	}
	return n
}

// ProveBoundary builds the boundary proof for entry idx of the signed
// relation in the given direction against a query bound. dir==Up proves
// Recs[idx].Key < bound (left boundary, bound = alpha); dir==Down proves
// Recs[idx].Key > bound (right boundary, bound = beta).
func (sr *SignedRelation) ProveBoundary(h *hashx.Hasher, idx int, dir Direction, bound uint64) (BoundaryProof, error) {
	if idx < 0 || idx >= len(sr.Recs) {
		return BoundaryProof{}, fmt.Errorf("core: boundary index %d out of range", idx)
	}
	rec := sr.Recs[idx]
	switch {
	case rec.Kind == KindDelimLeft && dir == Down,
		rec.Kind == KindDelimRight && dir == Up:
		return BoundaryProof{}, fmt.Errorf("core: delimiter %v has no %v chain", rec.Kind, dir)
	}
	chain, err := proveSide(h, sr.Params, rec.Key(), dir, bound)
	if err != nil {
		return BoundaryProof{}, err
	}
	proof := BoundaryProof{Kind: rec.Kind, Chain: chain}
	if rec.Kind == KindRecord {
		if dir == Up {
			proof.OtherCombined = rec.DownCombined.Clone()
		} else {
			proof.OtherCombined = rec.UpCombined.Clone()
		}
		proof.AttrRoot = rec.AttrRoot
	}
	return proof, nil
}

// VerifyBoundary reconstructs g(boundary) implied by the proof and the
// query bound. The caller then folds the digest into the signature-chain
// check; a publisher that lied about the boundary key cannot produce chain
// intermediates that survive both this reconstruction and the signature.
func VerifyBoundary(h *hashx.Hasher, p Params, proof BoundaryProof, dir Direction, bound uint64) (hashx.Digest, error) {
	combined, err := verifyChain(h, p, proof.Chain, dir, bound)
	if err != nil {
		return nil, err
	}
	switch proof.Kind {
	case KindDelimLeft:
		if dir != Up {
			return nil, fmt.Errorf("%w: left delimiter cannot bound from above", ErrProofShape)
		}
		return recordG(h, KindDelimLeft, h.CDigest(combined, markerNoChain(h)), markerDelimAttr(h)), nil
	case KindDelimRight:
		if dir != Down {
			return nil, fmt.Errorf("%w: right delimiter cannot bound from below", ErrProofShape)
		}
		return recordG(h, KindDelimRight, h.CDigest(markerNoChain(h), combined), markerDelimAttr(h)), nil
	case KindRecord:
		if len(proof.OtherCombined) != h.Size() || len(proof.AttrRoot) != h.Size() {
			return nil, fmt.Errorf("%w: missing boundary components", ErrProofShape)
		}
		var up, down hashx.Digest
		if dir == Up {
			up, down = combined, proof.OtherCombined
		} else {
			up, down = proof.OtherCombined, combined
		}
		return recordG(h, KindRecord, h.CDigest(up, down), proof.AttrRoot), nil
	default:
		return nil, fmt.Errorf("%w: unknown boundary kind %d", ErrProofShape, proof.Kind)
	}
}
