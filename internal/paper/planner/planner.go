// Package planner chooses which signed sort order should answer a query.
//
// A multipoint query (Section 4.4) — say "Salary < 10000 AND Dept = 1" —
// can be answered two ways once the owner signs multiple orderings
// (package multiorder):
//
//   - on the primary (Salary) ordering, with Dept=1 as a multipoint
//     filter: every covered record appears in the VO, filtered ones as
//     digests; or
//   - on the Dept ordering, with Dept=1 as the key range and the Salary
//     bound as a multipoint filter on the PrimaryKeyCol column.
//
// Both verify; they differ in how many records the VO must cover. The
// planner picks the ordering with the smallest cover — computable exactly
// at the publisher, which holds the data — and reports an EXPLAIN-style
// rationale. Verification is unchanged: the user checks the result
// against the ordering the plan names.
package planner

import (
	"errors"
	"fmt"

	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/paper/multiorder"
	"vcqr/internal/relation"
)

// ErrNoPlan reports a query no ordering can answer.
var ErrNoPlan = errors.New("planner: no ordering can answer this query")

// Plan is the outcome: the query to execute (possibly rewritten against a
// secondary ordering) and the rationale.
type Plan struct {
	// Query is what the publisher should execute; Relation names the
	// chosen ordering.
	Query engine.Query
	// Ordering is the sort column the plan uses (the primary key
	// attribute or a secondary ordering column).
	Ordering string
	// Cover is the exact number of records the VO will cover.
	Cover int
	// Explain is a human-readable rationale.
	Explain string
}

// Choose evaluates every ordering that can express the query and returns
// the cheapest plan. The input query is phrased against the primary
// ordering: KeyLo/KeyHi bound the primary key attribute; Filters may
// reference any column.
func Choose(tab *multiorder.Table, q engine.Query) (Plan, error) {
	if q.Relation != tab.Primary.Schema.Name {
		return Plan{}, fmt.Errorf("planner: query names %q, table is %q", q.Relation, tab.Primary.Schema.Name)
	}
	best := Plan{Cover: -1}

	// Candidate 0: the primary ordering, as asked.
	primCover := coverSize(tab.Primary, normalizeLo(tab.Primary, q.KeyLo), normalizeHi(tab.Primary, q.KeyHi))
	best = Plan{
		Query:    q,
		Ordering: tab.Primary.Schema.KeyName,
		Cover:    primCover,
		Explain:  fmt.Sprintf("primary ordering on %s covers %d records", tab.Primary.Schema.KeyName, primCover),
	}

	// Candidates: one per secondary ordering with an equality or range
	// filter on its column.
	for _, f := range q.Filters {
		sr, err := tab.For(f.Col)
		if err != nil || sr == tab.Primary {
			continue
		}
		lo, hi, ok := filterRange(f, sr.Params)
		if !ok {
			continue
		}
		rewritten, err := rewriteForOrdering(tab, sr, q, f, lo, hi)
		if err != nil {
			continue
		}
		cover := coverSize(sr, lo, hi)
		if cover < best.Cover {
			best = Plan{
				Query:    rewritten,
				Ordering: f.Col,
				Cover:    cover,
				Explain: fmt.Sprintf("secondary ordering on %s covers %d records (primary would cover %d)",
					f.Col, cover, primCover),
			}
		}
	}
	if best.Cover < 0 {
		return Plan{}, ErrNoPlan
	}
	return best, nil
}

// normalizeLo/Hi apply the engine's range defaulting.
func normalizeLo(sr *core.SignedRelation, lo uint64) uint64 {
	if lo <= sr.Params.L {
		return sr.Params.L + 1
	}
	return lo
}

func normalizeHi(sr *core.SignedRelation, hi uint64) uint64 {
	if hi == 0 || hi >= sr.Params.U {
		return sr.Params.U - 1
	}
	return hi
}

// coverSize counts records in [lo, hi] on an ordering.
func coverSize(sr *core.SignedRelation, lo, hi uint64) int {
	a, b := sr.RangeIndices(lo, hi)
	return b - a
}

// filterRange converts a filter on the ordering column into a key range.
func filterRange(f engine.Filter, p core.Params) (uint64, uint64, bool) {
	if f.Val.Type != relation.TypeInt || f.Val.Int < 0 {
		return 0, 0, false
	}
	v := uint64(f.Val.Int)
	switch f.Op {
	case engine.OpEq:
		if v <= p.L || v >= p.U {
			return 0, 0, false
		}
		return v, v, true
	case engine.OpLe:
		return p.L + 1, min64(v, p.U-1), true
	case engine.OpLt:
		if v <= p.L+1 {
			return 0, 0, false
		}
		return p.L + 1, min64(v-1, p.U-1), true
	case engine.OpGe:
		return max64(v, p.L+1), p.U - 1, true
	case engine.OpGt:
		return max64(v+1, p.L+1), p.U - 1, true
	default:
		return 0, 0, false
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// rewriteForOrdering rephrases the query against a secondary ordering:
// the chosen filter becomes the key range; the primary-key bound becomes
// a filter on PrimaryKeyCol; remaining filters carry over; the projection
// is translated (PrimaryKeyCol is always included so the caller can
// recover the original key).
func rewriteForOrdering(tab *multiorder.Table, sr *core.SignedRelation, q engine.Query, used engine.Filter, lo, hi uint64) (engine.Query, error) {
	out := engine.Query{
		Relation: sr.Schema.Name,
		KeyLo:    lo,
		KeyHi:    hi,
		Distinct: q.Distinct,
	}
	// Primary-key range -> filters on PrimaryKeyCol.
	pLo := normalizeLo(tab.Primary, q.KeyLo)
	pHi := normalizeHi(tab.Primary, q.KeyHi)
	if pLo > tab.Primary.Params.L+1 {
		out.Filters = append(out.Filters, engine.Filter{
			Col: multiorder.PrimaryKeyCol, Op: engine.OpGe, Val: relation.IntVal(int64(pLo)),
		})
	}
	if pHi < tab.Primary.Params.U-1 {
		out.Filters = append(out.Filters, engine.Filter{
			Col: multiorder.PrimaryKeyCol, Op: engine.OpLe, Val: relation.IntVal(int64(pHi)),
		})
	}
	// Remaining filters carry over (they reference columns that exist on
	// the derived schema under the same names).
	for _, f := range q.Filters {
		if f.Col == used.Col && f.Op == used.Op && f.Val.Equal(used.Val) {
			continue
		}
		if sr.Schema.ColIndex(f.Col) < 0 {
			return engine.Query{}, fmt.Errorf("planner: filter column %q missing on ordering", f.Col)
		}
		out.Filters = append(out.Filters, f)
	}
	// Projection: translate, always including the primary key column.
	if q.Project != nil {
		out.Project = append([]string{multiorder.PrimaryKeyCol}, nil...)
		for _, c := range q.Project {
			if c == used.Col {
				continue // it is the ordering key now, returned implicitly
			}
			if sr.Schema.ColIndex(c) < 0 {
				return engine.Query{}, fmt.Errorf("planner: projected column %q missing on ordering", c)
			}
			out.Project = append(out.Project, c)
		}
	}
	return out, nil
}
