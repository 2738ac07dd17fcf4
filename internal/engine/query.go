// Package engine is the publisher side of the data-publishing model
// (Figure 3): it hosts signed relations received from the owner, rewrites
// incoming queries to comply with access-control policies, executes
// select-project-join queries, and assembles the verification objects of
// Sections 3–5 that accompany every result.
//
// Concurrency: Publisher is safe for concurrent queries and relation
// registration (the registry is RWMutex-guarded), but registered
// relations are treated as immutable snapshots — live updates must swap
// in a fresh copy rather than mutate in place. See the Publisher type
// comment for the full contract; internal/server builds lock-free
// epoch-snapshot serving on top of it.
package engine

import (
	"errors"
	"fmt"

	"vcqr/internal/relation"
)

// Op is a comparison operator for non-key filter predicates. The paper's
// selection condition grammar is Ai THETA c with THETA in
// {=, <>, <, <=, >, >=} (Section 4.1).
type Op int

// Comparison operators.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// Filter is one non-key predicate of a multipoint query (Section 4.4):
// the result still occupies a contiguous range on K, but records inside
// the range that fail the filter are represented by digests rather than
// values.
type Filter struct {
	Col string
	Op  Op
	Val relation.Value
}

// Eval evaluates the filter on a value. Ordered comparisons are defined
// for ints, floats and strings; on other types only equality operators
// are meaningful and ordered operators evaluate to false.
func (f Filter) Eval(v relation.Value) bool {
	switch f.Op {
	case OpEq:
		return v.Equal(f.Val)
	case OpNe:
		return !v.Equal(f.Val)
	}
	c, ok := compare(v, f.Val)
	if !ok {
		return false
	}
	switch f.Op {
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

func compare(a, b relation.Value) (int, bool) {
	if a.Type != b.Type {
		return 0, false
	}
	switch a.Type {
	case relation.TypeInt:
		switch {
		case a.Int < b.Int:
			return -1, true
		case a.Int > b.Int:
			return 1, true
		}
		return 0, true
	case relation.TypeFloat:
		switch {
		case a.Float < b.Float:
			return -1, true
		case a.Float > b.Float:
			return 1, true
		}
		return 0, true
	case relation.TypeString:
		switch {
		case a.Str < b.Str:
			return -1, true
		case a.Str > b.Str:
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// Query is a select-project query over one signed relation: an inclusive
// range [KeyLo, KeyHi] on the sort attribute K, optional non-key filters
// (making it a multipoint query), an optional projection list, and the
// DISTINCT flag of Section 4.2.
//
// Point selection K = a is the range [a, a]; K > a is [a+1, U-1]; the
// Section 3 greater-than predicate is the range [alpha, U-1].
type Query struct {
	Relation string
	// KeyLo, KeyHi bound the key range, inclusive. Zero KeyHi means
	// "no upper bound" and is clamped to U-1 at execution.
	KeyLo, KeyHi uint64
	// Filters are conjunctive non-key predicates.
	Filters []Filter
	// Project lists the non-key columns to return; nil means all.
	// The key attribute is always returned (needed for verification).
	Project []string
	// Distinct requests duplicate elimination over the projected columns.
	Distinct bool
}

// Errors surfaced by query validation and execution.
var (
	ErrUnknownRelation = errors.New("engine: unknown relation")
	ErrUnknownColumn   = errors.New("engine: unknown column")
	ErrEmptyRewrite    = errors.New("engine: access policy leaves an empty key range")
	// ErrSignatureMode refuses a merge asked to ship anything but the
	// condensed signature (Section 5.2), the one signature a VO carries.
	ErrSignatureMode = errors.New("engine: only condensed signatures are served")
)

// Validate resolves column names against the schema, rejecting filters
// or projections over columns the relation does not have.
func (q Query) Validate(schema relation.Schema) error {
	for _, f := range q.Filters {
		if schema.ColIndex(f.Col) < 0 {
			return fmt.Errorf("%w: filter column %q", ErrUnknownColumn, f.Col)
		}
	}
	for _, c := range q.Project {
		if schema.ColIndex(c) < 0 {
			return fmt.Errorf("%w: projected column %q", ErrUnknownColumn, c)
		}
	}
	return nil
}

// passes evaluates all filters on a tuple.
func (q Query) passes(schema relation.Schema, t relation.Tuple) bool {
	for _, f := range q.Filters {
		if !f.Eval(t.Attrs[schema.ColIndex(f.Col)]) {
			return false
		}
	}
	return true
}
