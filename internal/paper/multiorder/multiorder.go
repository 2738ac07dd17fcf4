// Package multiorder supports range-verifiable queries on more than one
// attribute of the same relation.
//
// Section 6.3 of the paper: "the owner has to pre-generate signatures on
// each attribute or group of attributes that are expected to participate
// in the query conditions. This is analogous to creating B+-trees on
// those attributes." And the conclusion lists avoiding the per-sort-order
// signature sets (via multi-dimensional indices) as future work.
//
// This package implements the scheme's present answer: one signed
// ordering per interesting attribute, built from the same master tuples,
// with a router that picks the ordering matching a query's range column
// and an accounting of the signing-cost multiplier — the baseline any
// future multi-dimensional extension has to beat.
//
// A secondary ordering on column A re-keys the relation by A's value
// (mapped into a declared uint64 domain) and stores the original sort key
// as an ordinary column, so results from a secondary ordering still carry
// the primary key and verify with the standard machinery.
package multiorder

import (
	"errors"
	"fmt"

	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
)

// PrimaryKeyCol is the column name under which a secondary ordering
// stores the relation's original sort-key value.
const PrimaryKeyCol = "__primary"

// Errors.
var (
	ErrNoOrder  = errors.New("multiorder: no signed ordering for that column")
	ErrColType  = errors.New("multiorder: ordering column must be an int column")
	ErrColRange = errors.New("multiorder: column value outside the declared domain")
)

// OrderSpec declares a secondary ordering: the column, its value domain
// (open interval, like the primary key's), and the chain base.
type OrderSpec struct {
	Col  string
	L, U uint64
	Base uint64
}

// Table bundles the primary signed ordering with any number of secondary
// orderings over the same tuples.
type Table struct {
	// Primary is the relation signed on its natural sort key.
	Primary *core.SignedRelation
	// Secondary maps column name -> the signed re-keyed relation.
	Secondary map[string]*core.SignedRelation
	// Signatures is the total number of record signatures across all
	// orderings — the multiplier the future-work extension targets.
	Signatures int
}

// orderName builds the derived relation name.
func orderName(base, col string) string { return base + "/by-" + col }

// OrderRelationName returns the name under which the ordering for col is
// registered with a publisher (the primary ordering keeps the relation's
// own name).
func OrderRelationName(rel string, col string) string { return orderName(rel, col) }

// deriveSchema builds the schema of a secondary ordering: keyed by col,
// with the original key prepended as PrimaryKeyCol and every other
// original column retained (so projection and filters keep working).
func deriveSchema(s relation.Schema, col string) (relation.Schema, int, error) {
	idx := s.ColIndex(col)
	if idx < 0 {
		return relation.Schema{}, 0, fmt.Errorf("multiorder: no column %q in %q", col, s.Name)
	}
	if s.Cols[idx].Type != relation.TypeInt {
		return relation.Schema{}, 0, fmt.Errorf("%w: %q is %v", ErrColType, col, s.Cols[idx].Type)
	}
	out := relation.Schema{
		Name:    orderName(s.Name, col),
		KeyName: col,
		Cols:    []relation.Column{{Name: PrimaryKeyCol, Type: relation.TypeInt}},
	}
	for i, c := range s.Cols {
		if i == idx {
			continue
		}
		out.Cols = append(out.Cols, c)
	}
	return out, idx, nil
}

// Build signs the relation under its primary order and under each
// requested secondary ordering.
func Build(h *hashx.Hasher, key *sig.PrivateKey, rel *relation.Relation, primaryBase uint64, specs []OrderSpec) (*Table, error) {
	p, err := core.NewParams(rel.L, rel.U, primaryBase)
	if err != nil {
		return nil, err
	}
	primary, err := core.Build(h, key, p, rel)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Primary:    primary,
		Secondary:  make(map[string]*core.SignedRelation, len(specs)),
		Signatures: rel.Len() + 2,
	}
	for _, spec := range specs {
		schema, idx, err := deriveSchema(rel.Schema, spec.Col)
		if err != nil {
			return nil, err
		}
		derived, err := relation.New(schema, spec.L, spec.U)
		if err != nil {
			return nil, err
		}
		for _, tp := range rel.Tuples {
			v := tp.Attrs[idx]
			if v.Int < 0 || uint64(v.Int) <= spec.L || uint64(v.Int) >= spec.U {
				return nil, fmt.Errorf("%w: %q = %d not in (%d, %d)", ErrColRange, spec.Col, v.Int, spec.L, spec.U)
			}
			attrs := make([]relation.Value, 0, len(tp.Attrs))
			attrs = append(attrs, relation.IntVal(int64(tp.Key)))
			for i, a := range tp.Attrs {
				if i == idx {
					continue
				}
				attrs = append(attrs, a)
			}
			if _, err := derived.Insert(relation.Tuple{Key: uint64(v.Int), Attrs: attrs}); err != nil {
				return nil, err
			}
		}
		sp, err := core.NewParams(spec.L, spec.U, spec.Base)
		if err != nil {
			return nil, err
		}
		sr, err := core.Build(h, key, sp, derived)
		if err != nil {
			return nil, err
		}
		t.Secondary[spec.Col] = sr
		t.Signatures += derived.Len() + 2
	}
	return t, nil
}

// For routes a range predicate on the named column to the signed ordering
// that can prove it: the primary relation when col is the primary key
// attribute, otherwise the matching secondary ordering.
func (t *Table) For(col string) (*core.SignedRelation, error) {
	if col == t.Primary.Schema.KeyName {
		return t.Primary, nil
	}
	sr, ok := t.Secondary[col]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoOrder, col)
	}
	return sr, nil
}

// All returns every signed ordering, primary first — convenient for
// registering with a publisher.
func (t *Table) All() []*core.SignedRelation {
	out := []*core.SignedRelation{t.Primary}
	for _, spec := range t.orderedCols() {
		out = append(out, t.Secondary[spec])
	}
	return out
}

// orderedCols returns secondary columns in deterministic order.
func (t *Table) orderedCols() []string {
	cols := make([]string, 0, len(t.Secondary))
	for c := range t.Secondary {
		cols = append(cols, c)
	}
	for i := 1; i < len(cols); i++ {
		for j := i; j > 0 && cols[j] < cols[j-1]; j-- {
			cols[j], cols[j-1] = cols[j-1], cols[j]
		}
	}
	return cols
}

// CostMultiplier returns the signing-cost ratio over a single ordering:
// the quantity a multi-dimensional scheme would aim to bring back to 1.
func (t *Table) CostMultiplier() float64 {
	base := t.Primary.Len() + 2
	if base == 0 {
		return 0
	}
	return float64(t.Signatures) / float64(base)
}
