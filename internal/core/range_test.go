package core

import (
	"math/rand"
	"slices"
	"testing"

	"vcqr/internal/relation"
)

// rangeIndicesRef is the linear scan RangeIndices replaced, kept as the
// reference its binary searches are held to.
func rangeIndicesRef(sr *SignedRelation, lo, hi uint64) (int, int) {
	a := 1
	for a < len(sr.Recs)-1 && sr.Recs[a].Key() < lo {
		a++
	}
	b := a
	for b < len(sr.Recs)-1 && sr.Recs[b].Key() <= hi {
		b++
	}
	return a, b
}

// TestRangeIndicesMatchesLinearScan holds RangeIndices to the linear
// scan on random slices in key order: keys drawn from a small domain so
// duplicates (distinct row ids) are common, both whole relations (two
// delimiters) and shard slices (context records at either end whose keys
// lie outside the owned span), and bounds everywhere — below and above
// every key, between keys, on duplicates, and lo > hi.
func TestRangeIndicesMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rec := func(kind Kind, key, row uint64) *SignedRecord {
		return &SignedRecord{Kind: kind, Tuple: relation.Tuple{Key: key, RowID: row}}
	}
	for trial := range 2000 {
		n := rng.Intn(12)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = 10 + uint64(rng.Intn(20))
		}
		slices.Sort(keys)
		recs := []*SignedRecord{rec(KindDelimLeft, 0, 0)}
		if trial%2 == 1 {
			recs[0] = rec(KindRecord, 5+uint64(rng.Intn(5)), 7) // left context
		}
		for i, k := range keys {
			recs = append(recs, rec(KindRecord, k, uint64(i+1)))
		}
		if trial%3 == 1 {
			recs = append(recs, rec(KindRecord, 30+uint64(rng.Intn(5)), 9)) // right context
		} else {
			recs = append(recs, rec(KindDelimRight, 1<<20, 0))
		}
		sr := &SignedRelation{Recs: recs}
		for range 40 {
			lo, hi := uint64(rng.Intn(45)), uint64(rng.Intn(45))
			if rng.Intn(4) == 0 {
				hi = lo
			}
			a, b := sr.RangeIndices(lo, hi)
			wa, wb := rangeIndicesRef(sr, lo, hi)
			if a != wa || b != wb {
				t.Fatalf("keys %v, [%d,%d]: RangeIndices = (%d,%d), linear scan (%d,%d)", keys, lo, hi, a, b, wa, wb)
			}
		}
	}
	for _, sr := range []*SignedRelation{{}, {Recs: []*SignedRecord{rec(KindDelimLeft, 0, 0)}},
		{Recs: []*SignedRecord{rec(KindDelimLeft, 0, 0), rec(KindDelimRight, 1<<20, 0)}}} {
		if a, b := sr.RangeIndices(0, 1<<20); a != 1 || b != 1 {
			t.Fatalf("%d-entry slice: RangeIndices = (%d,%d), want (1,1)", len(sr.Recs), a, b)
		}
	}
}
