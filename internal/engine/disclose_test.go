package engine_test

import (
	"bytes"
	"testing"

	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
)

// TestDiscloseShipsAttrLeavesMinusOpened: the publisher hashes only the
// leaves it ships, yet every entry's hidden digests are byte for byte
// what core.AttrLeaves gives for the record less the leaves the entry
// opens (plus the key leaf on a Case 2 entry) — for a full projection, a
// partial one, a Case 1 and a Case 2 entry, and a projection that names
// a column twice.
func TestDiscloseShipsAttrLeavesMinusOpened(t *testing.T) {
	f := newFixture(t)
	ref := hashx.New()
	var recs []*core.SignedRecord
	for _, rec := range f.sr.Recs {
		if rec.Kind == core.KindRecord {
			recs = append(recs, rec)
		}
	}
	for _, sc := range []struct {
		name string
		role string
		q    engine.Query
		mode engine.EntryMode // a mode the scenario must ship at least once
	}{
		{"full projection", "manager", engine.Query{Relation: "Emp"}, engine.EntryResult},
		{"partial projection", "manager", engine.Query{Relation: "Emp", Project: []string{"Name", "Dept"}}, engine.EntryResult},
		{"case 1", "manager", engine.Query{Relation: "Emp", Filters: []engine.Filter{{Col: "Dept", Op: engine.OpLe, Val: relation.IntVal(1)}}}, engine.EntryFilteredVisible},
		{"case 2", "clerk", engine.Query{Relation: "Emp"}, engine.EntryFilteredHidden},
		{"duplicate columns", "manager", engine.Query{Relation: "Emp", Project: []string{"Dept", "Name", "Dept", "Name"}}, engine.EntryResult},
	} {
		res, err := f.pub.Execute(sc.role, sc.q)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		entries := res.VO.Entries
		if len(entries) != len(recs) {
			t.Fatalf("%s: %d entries for %d records", sc.name, len(entries), len(recs))
		}
		seen := false
		for i, e := range entries {
			tup := recs[i].Tuple
			opened := map[int]bool{}
			for _, d := range e.Disclosed {
				opened[d.Col+1] = true
			}
			var want []hashx.Digest
			for j, l := range core.AttrLeaves(ref, tup) {
				if !opened[j] {
					want = append(want, l)
				}
			}
			if e.Mode == engine.EntryFilteredHidden {
				want = append(want, core.KeyLeaf(ref, tup.Key))
			}
			if len(e.HiddenLeaves) != len(want) {
				t.Fatalf("%s: entry %d ships %d hidden leaves, want %d", sc.name, i, len(e.HiddenLeaves), len(want))
			}
			for j := range want {
				if !bytes.Equal(e.HiddenLeaves[j], want[j]) {
					t.Fatalf("%s: entry %d hidden leaf %d differs from core.AttrLeaves", sc.name, i, j)
				}
			}
			seen = seen || e.Mode == sc.mode
		}
		if !seen {
			t.Fatalf("%s: no %v entry shipped", sc.name, sc.mode)
		}
		if _, err := f.verifier(t).VerifyResult(sc.q, f.roles[sc.role], res); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
	}
}
