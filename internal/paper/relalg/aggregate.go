package relalg

import (
	"errors"
	"fmt"

	"vcqr/internal/engine"
	"vcqr/internal/relation"
)

// Aggregate computation over *verified* rows (Section 4.2: "For some
// queries, the user may want to retain the duplicates, e.g. for the
// computation of SUM and AVG"). These helpers run entirely client-side:
// verification guarantees the rows are complete and authentic, so the
// aggregates computed from them are trustworthy without any additional
// protocol.

// ErrNoRows reports an aggregate over zero rows where undefined (AVG).
var ErrNoRows = errors.New("relalg: aggregate over zero rows")

// Count returns the number of verified rows.
func Count(rows []engine.Row) int { return len(rows) }

// SumKeys sums the key attribute across rows.
func SumKeys(rows []engine.Row) uint64 {
	var s uint64
	for _, r := range rows {
		s += r.Key
	}
	return s
}

// AvgKeys averages the key attribute across rows.
func AvgKeys(rows []engine.Row) (float64, error) {
	if len(rows) == 0 {
		return 0, ErrNoRows
	}
	return float64(SumKeys(rows)) / float64(len(rows)), nil
}

// colValue finds the disclosed value of a column in a row.
func colValue(schema relation.Schema, row engine.Row, col string) (relation.Value, error) {
	idx := schema.ColIndex(col)
	if idx < 0 {
		return relation.Value{}, fmt.Errorf("relalg: no column %q", col)
	}
	for _, d := range row.Values {
		if d.Col == idx {
			return d.Val, nil
		}
	}
	return relation.Value{}, fmt.Errorf("relalg: column %q not disclosed in row", col)
}

// SumInt sums an integer column across rows; every row must disclose it.
func SumInt(schema relation.Schema, rows []engine.Row, col string) (int64, error) {
	var s int64
	for _, r := range rows {
		v, err := colValue(schema, r, col)
		if err != nil {
			return 0, err
		}
		if v.Type != relation.TypeInt {
			return 0, fmt.Errorf("relalg: column %q is %v, not int", col, v.Type)
		}
		s += v.Int
	}
	return s, nil
}

// AvgInt averages an integer column across rows.
func AvgInt(schema relation.Schema, rows []engine.Row, col string) (float64, error) {
	if len(rows) == 0 {
		return 0, ErrNoRows
	}
	s, err := SumInt(schema, rows, col)
	if err != nil {
		return 0, err
	}
	return float64(s) / float64(len(rows)), nil
}

// MinMaxKeys returns the smallest and largest keys among rows.
func MinMaxKeys(rows []engine.Row) (lo, hi uint64, err error) {
	if len(rows) == 0 {
		return 0, 0, ErrNoRows
	}
	lo, hi = rows[0].Key, rows[0].Key
	for _, r := range rows[1:] {
		if r.Key < lo {
			lo = r.Key
		}
		if r.Key > hi {
			hi = r.Key
		}
	}
	return lo, hi, nil
}
