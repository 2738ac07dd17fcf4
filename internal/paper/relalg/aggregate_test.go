package relalg_test

import (
	"errors"
	"testing"

	"vcqr/internal/engine"
	"vcqr/internal/paper/relalg"
	"vcqr/internal/relation"
)

func TestAggregateHelpers(t *testing.T) {
	schema := relation.Schema{
		Name: "T", KeyName: "K",
		Cols: []relation.Column{{Name: "V", Type: relation.TypeInt}, {Name: "S", Type: relation.TypeString}},
	}
	rows := []engine.Row{
		{Key: 10, Values: []engine.DisclosedAttr{{Col: 0, Val: relation.IntVal(5)}}},
		{Key: 20, Values: []engine.DisclosedAttr{{Col: 0, Val: relation.IntVal(7)}}},
		{Key: 30, Values: []engine.DisclosedAttr{{Col: 0, Val: relation.IntVal(9)}}},
	}
	if relalg.Count(rows) != 3 {
		t.Error("Count")
	}
	if relalg.SumKeys(rows) != 60 {
		t.Error("SumKeys")
	}
	if avg, err := relalg.AvgKeys(rows); err != nil || avg != 20 {
		t.Errorf("AvgKeys = %v, %v", avg, err)
	}
	if s, err := relalg.SumInt(schema, rows, "V"); err != nil || s != 21 {
		t.Errorf("SumInt = %v, %v", s, err)
	}
	if a, err := relalg.AvgInt(schema, rows, "V"); err != nil || a != 7 {
		t.Errorf("AvgInt = %v, %v", a, err)
	}
	lo, hi, err := relalg.MinMaxKeys(rows)
	if err != nil || lo != 10 || hi != 30 {
		t.Errorf("MinMaxKeys = %d, %d, %v", lo, hi, err)
	}
	// Error paths.
	if _, err := relalg.AvgKeys(nil); !errors.Is(err, relalg.ErrNoRows) {
		t.Error("AvgKeys(nil)")
	}
	if _, _, err := relalg.MinMaxKeys(nil); !errors.Is(err, relalg.ErrNoRows) {
		t.Error("MinMaxKeys(nil)")
	}
	if _, err := relalg.SumInt(schema, rows, "Missing"); err == nil {
		t.Error("SumInt missing column")
	}
	if _, err := relalg.SumInt(schema, rows, "S"); err == nil {
		t.Error("SumInt on undisclosed/wrong-typed column")
	}
	if _, err := relalg.AvgInt(schema, nil, "V"); !errors.Is(err, relalg.ErrNoRows) {
		t.Error("AvgInt(nil)")
	}
}

func TestVerifiedAggregateEndToEnd(t *testing.T) {
	// Duplicates retained (no DISTINCT): SUM over a verified multiset is
	// trustworthy, the Section 4.2 point.
	f := newVFix(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 1<<20 - 1, Project: []string{"Dept"}}
	res, err := f.pub.Execute("all", q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := f.v.VerifyResult(q, f.role, res)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := relalg.SumInt(f.sr.Schema, rows, "Dept")
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth.
	var want int64
	deptIdx := f.sr.Schema.ColIndex("Dept")
	for i := 1; i <= f.sr.Len(); i++ {
		want += f.sr.Recs[i].Tuple.Attrs[deptIdx].Int
	}
	if sum != want {
		t.Fatalf("verified SUM(Dept) = %d, ground truth %d", sum, want)
	}
}
