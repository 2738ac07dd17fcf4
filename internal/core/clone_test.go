package core_test

import (
	"testing"

	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/workload"
)

// TestOwnerMutatorsLeaveCloneSource runs each owner-side mutator —
// Insert, Delete, UpdateAttrs, at an edge and in the interior — on a
// clone: each re-signs records the clone shares with its source, so
// each must swap in its own copies (SignedRelation.Own) and leave the
// source's SliceDigest where it was.
func TestOwnerMutatorsLeaveCloneSource(t *testing.T) {
	h := hashx.New()
	rel, err := workload.Employees(workload.EmployeeConfig{N: 12, L: 0, U: 1 << 20, PhotoSize: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	src := buildVersion(t, h, rel, 1)
	want := partition.SliceDigest(h, src)
	key := signKey(t)
	for _, pos := range []int{1, src.Len() / 2, src.Len()} {
		rec := src.Recs[pos]
		for name, mutate := range map[string]func(cl *core.SignedRelation) (int, error){
			"Insert": func(cl *core.SignedRelation) (int, error) {
				return cl.Insert(h, key, relation.Tuple{Key: rec.Key(), Attrs: rec.Tuple.Attrs})
			},
			"Delete": func(cl *core.SignedRelation) (int, error) {
				return cl.Delete(h, key, rec.Key(), rec.Tuple.RowID)
			},
			"UpdateAttrs": func(cl *core.SignedRelation) (int, error) {
				attrs := rec.Tuple.Clone().Attrs
				attrs[0] = relation.IntVal(-int64(pos))
				return cl.UpdateAttrs(h, key, rec.Key(), rec.Tuple.RowID, attrs)
			},
		} {
			cl := src.Clone()
			if _, err := mutate(cl); err != nil {
				t.Fatalf("%s at %d: %v", name, pos, err)
			}
			if err := cl.Validate(h, key.Public()); err != nil {
				t.Fatalf("%s at %d: the clone does not validate: %v", name, pos, err)
			}
			if !partition.SliceDigest(h, src).Equal(want) {
				t.Fatalf("%s at %d on a clone moved the source's slice digest", name, pos)
			}
		}
	}
	if err := src.Validate(h, key.Public()); err != nil {
		t.Fatalf("source corrupted by its clones' mutators: %v", err)
	}
}
