// Package relalg is the paper's Section 4 relational operators over the
// verified select-project query: K ≠ a as a union of ranges (4.1),
// aggregates over a verified multiset (4.2), and the PK–FK and band
// joins (4.3). Each operator is a pair of functions. The publisher half
// answers it with one ordinary range query per member, the drained
// engine.Publisher.ExecuteStreamOn; the verifier half checks each member with
// verify.Verifier.VerifyResult and then the shape that ties the members
// together, which is where the operator's completeness argument lives.
//
// No request reaches these operators. A client that wants one composes
// range queries itself; the paper tree keeps them as the executable form
// of Section 4's reductions.
package relalg

import (
	"errors"
	"fmt"

	"vcqr/internal/accessctl"
	"vcqr/internal/engine"
	"vcqr/internal/verify"
)

// Union verification failures.
var (
	ErrUnionShape  = errors.New("relalg: union result shape does not match the query")
	ErrUnionMember = errors.New("relalg: union member missing despite non-empty rights")
)

// KeyRange is one inclusive key interval of a union query.
type KeyRange struct {
	Lo, Hi uint64
}

// UnionQuery is a disjunction of key ranges with shared filters and
// projection. Section 4.1 reduces every selection operator to ranges;
// the one case needing more than a single range is K != a, which maps to
// (L, a-1] ∪ [a+1, U). Each member range gets its own verification
// object; the verifier checks all of them and that the ranges match the
// expected decomposition.
type UnionQuery struct {
	Relation string
	Ranges   []KeyRange
	Filters  []engine.Filter
	Project  []string
	Distinct bool
}

// NotEqual builds the union query for the predicate K != key over the
// open domain (l, u): the Section 4.1 mapping.
func NotEqual(rel string, key, l, u uint64) (UnionQuery, error) {
	if key <= l || key >= u {
		return UnionQuery{}, fmt.Errorf("relalg: K != %d is vacuous outside (%d, %d)", key, l, u)
	}
	uq := UnionQuery{Relation: rel}
	if key-1 >= l+1 {
		uq.Ranges = append(uq.Ranges, KeyRange{Lo: l + 1, Hi: key - 1})
	}
	if key+1 <= u-1 {
		uq.Ranges = append(uq.Ranges, KeyRange{Lo: key + 1, Hi: u - 1})
	}
	return uq, nil
}

// checkRanges holds a union's ranges to the shape both halves rely on:
// at least one, none inverted, disjoint and ascending, so member rows
// concatenate into key order and no tuple is counted twice.
func (uq UnionQuery) checkRanges() error {
	if len(uq.Ranges) == 0 {
		return fmt.Errorf("%w: no ranges", ErrUnionShape)
	}
	for i, r := range uq.Ranges {
		if r.Lo > r.Hi {
			return fmt.Errorf("%w: range %d inverted [%d, %d]", ErrUnionShape, i, r.Lo, r.Hi)
		}
		if i > 0 && r.Lo <= uq.Ranges[i-1].Hi {
			return fmt.Errorf("%w: ranges %d and %d overlap or are unsorted", ErrUnionShape, i-1, i)
		}
	}
	return nil
}

// memberQuery projects one range of a union onto a plain Query.
func (uq UnionQuery) memberQuery(r KeyRange) engine.Query {
	return engine.Query{
		Relation: uq.Relation,
		KeyLo:    r.Lo,
		KeyHi:    r.Hi,
		Filters:  uq.Filters,
		Project:  uq.Project,
		Distinct: uq.Distinct,
	}
}

// UnionResult carries one Result per member range, aligned with the
// query's Ranges. A member whose rewrite empties (entirely outside the
// caller's rights) is nil; the verifier re-derives which members are
// allowed to be nil from its own policy knowledge.
type UnionResult struct {
	Members []*engine.Result
}

// ExecuteUnion answers a union query: one VO per member range. The
// relation is resolved once so all members answer from one snapshot
// generation.
func ExecuteUnion(p *engine.Publisher, roleName string, uq UnionQuery) (*UnionResult, error) {
	if err := uq.checkRanges(); err != nil {
		return nil, err
	}
	sr, ok := p.Relation(uq.Relation)
	if !ok {
		return nil, fmt.Errorf("%w: %q", engine.ErrUnknownRelation, uq.Relation)
	}
	out := &UnionResult{Members: make([]*engine.Result, len(uq.Ranges))}
	for i, r := range uq.Ranges {
		res, err := executeOn(p, sr, roleName, uq.memberQuery(r))
		if errors.Is(err, engine.ErrEmptyRewrite) {
			continue // range entirely outside the caller's rights
		}
		if err != nil {
			return nil, fmt.Errorf("relalg: union member %d: %w", i, err)
		}
		out.Members[i] = res
	}
	return out, nil
}

// VerifyUnion checks a union-of-ranges result: every member range that
// intersects the caller's rights must carry a verified result; ranges
// entirely outside the rights must be nil. Rows concatenate in range
// order.
func VerifyUnion(v *verify.Verifier, uq UnionQuery, role accessctl.Role, res *UnionResult) ([]engine.Row, error) {
	if err := uq.checkRanges(); err != nil {
		return nil, err
	}
	if len(res.Members) != len(uq.Ranges) {
		return nil, fmt.Errorf("%w: %d members for %d ranges", ErrUnionShape, len(res.Members), len(uq.Ranges))
	}
	var out []engine.Row
	for i, r := range uq.Ranges {
		// Does this range survive the caller's own rights?
		lo, hi := r.Lo, r.Hi
		if lo <= v.Params.L {
			lo = v.Params.L + 1
		}
		if hi == 0 || hi >= v.Params.U {
			hi = v.Params.U - 1
		}
		_, _, allowed := role.ClampRange(lo, hi)
		member := res.Members[i]
		if !allowed {
			if member != nil {
				return nil, fmt.Errorf("%w: member %d present despite empty rights", ErrUnionShape, i)
			}
			continue
		}
		if member == nil {
			return nil, fmt.Errorf("%w: member %d", ErrUnionMember, i)
		}
		rows, err := v.VerifyResult(uq.memberQuery(r), role, member)
		if err != nil {
			return nil, fmt.Errorf("union member %d: %w", i, err)
		}
		out = append(out, rows...)
	}
	return out, nil
}
