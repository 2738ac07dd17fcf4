// Package core implements the completeness-verification scheme of Pang,
// Jain, Ramamritham and Tan, "Verifying Completeness of Relational Query
// Results in Data Publishing" (SIGMOD 2005).
//
// The owner signs each record of a relation sorted on key attribute K with
//
//	sig(r_i) = s(h(g(r_{i-1}) | g(r_i) | g(r_{i+1})))         (formula 1)
//
// where the record digest
//
//	g(r) = h^{U-r.K-1}(r.K) | h^{r.K-L-1}(r.K) | MHT(r.A)      (formula 3)
//
// contains two iterated-hash chains over the key and a Merkle tree over
// the non-key attributes. Releasing the intermediate chain digest
// h^{a-r.K-1}(r.K) proves r.K < a without revealing r.K: the user extends
// the chain by U-a steps and checks the result against the signature
// chain. Section 5.1's base-B digit decomposition (package basep) reduces
// the chain length from O(U-L) to O(B log_B(U-L)); this package implements
// both the conceptual linear scheme and the optimized one, the former for
// cross-checking and the ablation experiment.
package core

import (
	"errors"
	"fmt"

	"vcqr/internal/basep"
	"vcqr/internal/hashx"
)

// MaxSpan bounds the key domain span so that representation arithmetic in
// package basep cannot overflow uint64 even with non-canonical digits.
const MaxSpan = uint64(1) << 62

// DefaultBase is the default number base for the Section 5.1 optimization.
// The paper shows user computation is minimized at B in {2, 3} (Figure 10).
const DefaultBase = 2

var (
	// ErrSpan reports an unusable key domain.
	ErrSpan = errors.New("core: key domain must satisfy L+1 < U and U-L <= MaxSpan")
	// ErrKeyDomain reports a key outside the open interval (L, U).
	ErrKeyDomain = errors.New("core: key outside open domain (L, U)")
	// ErrBoundDomain reports a query bound outside (L, U).
	ErrBoundDomain = errors.New("core: query bound outside open domain (L, U)")
	// ErrNotOutside reports an attempt to prove a boundary condition that
	// is false — the cheating-publisher situation of Section 3.2, which by
	// construction has no proof.
	ErrNotOutside = errors.New("core: record key does not satisfy the boundary condition")
	// ErrProofShape reports a structurally malformed proof.
	ErrProofShape = errors.New("core: malformed proof")
	// ErrRecordFormat reports parameters or signed material from a
	// record format this build does not verify.
	ErrRecordFormat = errors.New("core: record format not verifiable by this build; re-sign from the owner's master")
)

// RecordFormat numbers the layout of the record digest g(r) this build
// signs and verifies. Format 2 folds the two combined chain digests into
// one, C = h(up | down), so g(r) = h(kind | C | MHT(r.A)) and a VO entry
// ships C alone. Format 1 made the key the last leaf of MHT(r.A)
// (KeyLeaf) and folded up and down into g separately; format 0,
// everything signed before it, had no key leaf and decodes with Format 0
// because the field did not exist.
const RecordFormat = 2

// Params fixes the authenticated domain: the open key interval (L, U),
// the base-B digit parameters shared by the owner, publisher and user,
// the publication version and the record format.
//
// Version addresses the freshness gap of the 2005 scheme: nothing in the
// paper stops a publisher from serving a stale (complete, authentic)
// snapshot. Here the version is folded into every formula-(1) signature
// digest, and users learn the current version over the same authenticated
// channel as the public key — so results from a superseded publication
// fail verification as soon as the user refreshes their parameters.
type Params struct {
	L, U    uint64
	BP      basep.Params
	Version uint64
	Format  uint64
}

// NewParams validates the domain and derives the digit budget
// m = ceil(log_B(U-L)) of Section 5.1.
func NewParams(l, u, base uint64) (Params, error) {
	if u <= l+1 || u-l > MaxSpan {
		return Params{}, ErrSpan
	}
	bp, err := basep.NewParams(base, u-l)
	if err != nil {
		return Params{}, err
	}
	return Params{L: l, U: u, BP: bp, Format: RecordFormat}, nil
}

// CheckFormat refuses parameters of another record format by name.
func (p Params) CheckFormat() error {
	if p.Format != RecordFormat {
		return fmt.Errorf("%w: format %d, this build verifies format %d", ErrRecordFormat, p.Format, RecordFormat)
	}
	return nil
}

// Validate checks internal consistency.
func (p Params) Validate() error {
	if p.U <= p.L+1 || p.U-p.L > MaxSpan {
		return ErrSpan
	}
	return p.BP.Validate()
}

// Direction selects which of the two iterated-hash chains of formula (3)
// is meant: the Up chain h^{U-K-1} proves K is *below* a bound (left
// boundary of a range), the Down chain h^{K-L-1} proves K is *above* a
// bound (right boundary).
type Direction int

// Chain directions.
const (
	Up   Direction = iota // delta_t = U - K - 1; proves K < bound
	Down                  // delta_t = K - L - 1; proves K > bound
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// deltaT returns the total chain length for a key in the given direction.
// Delimiter keys L (Up only) and U (Down only) are legal; interior keys
// are legal in both directions.
func (p Params) deltaT(key uint64, dir Direction) (uint64, error) {
	switch dir {
	case Up:
		if key >= p.U {
			return 0, fmt.Errorf("%w: key %d, up chain", ErrKeyDomain, key)
		}
		return p.U - key - 1, nil
	default:
		if key <= p.L {
			return 0, fmt.Errorf("%w: key %d, down chain", ErrKeyDomain, key)
		}
		return key - p.L - 1, nil
	}
}

// deltaC returns the user-side chain extension for a query bound: U-bound
// for the Up chain (bound = alpha) and bound-L for the Down chain
// (bound = beta). Bounds must lie in the open domain.
func (p Params) deltaC(bound uint64, dir Direction) (uint64, error) {
	if bound <= p.L || bound >= p.U {
		return 0, fmt.Errorf("%w: bound %d", ErrBoundDomain, bound)
	}
	if dir == Up {
		return p.U - bound, nil
	}
	return bound - p.L, nil
}

// preimage returns the canonical pre-image r|j for digit j of a key's
// chain in a direction. The direction bit keeps the two chains of formula
// (3) from sharing hash values even when their deltas coincide.
func preimage(key uint64, digit int, dir Direction) []byte {
	return hashx.U64Pair(key, uint64(digit)<<1|uint64(dir))
}
