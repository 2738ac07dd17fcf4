package engine

import (
	"fmt"

	"vcqr/internal/core"
)

// Paged execution splits a large range query into page-sized sub-ranges,
// each with its own verification object. Completeness composes: each page
// is complete for its sub-range, and the verifier checks the pages tile
// the requested range exactly (page i+1 starts at page i's bound + 1), so
// no tuple can fall between pages. This keeps per-message VOs and user
// memory bounded for results with thousands of tuples.
//
// Page boundaries are key-based, not count-based: a page covers an
// inclusive key interval chosen so that about PageSize records fall in
// it. Records sharing a key never straddle pages (the split happens
// after the last record of a key), so multipoint semantics are preserved.

// PagedResult is an ordered list of per-page results tiling the range.
type PagedResult struct {
	// KeyLo, KeyHi is the effective overall range after rewriting.
	KeyLo, KeyHi uint64
	Pages        []*Result
}

// ExecutePaged answers a range query in pages of roughly pageSize
// records. The query's filters/projection/distinct apply per page.
func (p *Publisher) ExecutePaged(roleName string, q Query, pageSize int) (*PagedResult, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("engine: page size %d", pageSize)
	}
	sr, ok := p.Relation(q.Relation)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRelation, q.Relation)
	}
	role, eff, err := p.plan(sr, roleName, q)
	if err != nil {
		return nil, err
	}
	out := &PagedResult{KeyLo: eff.KeyLo, KeyHi: eff.KeyHi}
	lo := eff.KeyLo
	for {
		hi, done := pageBound(sr, lo, eff.KeyHi, pageSize)
		pageQ := eff
		pageQ.KeyLo, pageQ.KeyHi = lo, hi
		res, err := p.executeRewritten(sr, role, pageQ)
		if err != nil {
			return nil, err
		}
		out.Pages = append(out.Pages, res)
		if done {
			return out, nil
		}
		lo = hi + 1
	}
}

// pageBound picks the inclusive upper key of the page starting at lo: the
// key of the ~pageSize-th record in [lo, maxHi] (duplicates of that key
// are covered by the same page because the bound is key-inclusive), or
// maxHi when no more than pageSize records remain.
func pageBound(sr *core.SignedRelation, lo, maxHi uint64, pageSize int) (uint64, bool) {
	a, b := sr.RangeIndices(lo, maxHi)
	if b-a <= pageSize {
		return maxHi, true
	}
	cut := sr.Recs[a+pageSize-1].Key()
	if cut >= maxHi {
		return maxHi, true
	}
	return cut, false
}
