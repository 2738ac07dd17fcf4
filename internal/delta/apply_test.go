package delta_test

import (
	"reflect"
	"testing"

	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/partition"
)

// FuzzApplyOps holds ApplyOps' binary search to the linear reference
// (delta.ApplyOpsRef) — equal slices, equal touched sets, equal refusals
// — on identity-ordered sequences of every slice shape, edited by
// inserts, deletes, re-signs and context re-seats at both edges, with
// the diff's ops applied in their order and in a fuzz-chosen one. It
// also pins what the callers rely on: the result stays in identity
// order, every entry before the lowest touched index is the input's
// (replay resumes the slice digest there), and every entry whose record
// or neighbour changed is touched (validation re-proves exactly those).
func FuzzApplyOps(f *testing.F) {
	// data[0] picks the shape, data[1] the record count, data[2] the op
	// order, and every three bytes after them one edit (kind, position,
	// argument), as in FuzzDiff.
	f.Add([]byte{2, 2, 0, 4, 3, 0})                      // interior shard: left context re-seat
	f.Add([]byte{2, 2, 0, 4, 5, 1})                      // interior shard: right context re-seat
	f.Add([]byte{2, 4, 0, 4, 200, 0, 4, 0, 1})           // both edges re-seated at once
	f.Add([]byte{2, 4, 7, 4, 1, 0, 2, 2, 0, 3, 3, 0})    // re-seat, insert, delete, shuffled
	f.Add([]byte{0, 4, 3, 3, 2, 0, 2, 1, 1, 0, 0, 0})    // whole relation: delete, insert, re-sign
	f.Add([]byte{1, 3, 5, 4, 1, 1, 0, 0, 0, 1, 2, 0})    // first shard: right re-seat, delimiter re-sign, new G
	f.Add([]byte{3, 9, 1, 2, 8, 1, 2, 8, 2, 3, 9, 0, 4}) // last shard: adjacent inserts, delete
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		shape := data[0] % 4
		old := newDiffSlice(2+int(data[1]%10), shape <= 1, shape == 0 || shape == 3)
		next := &diffSlice{sr: old.sr.Clone(), next: 128}
		for p := 3; p+2 < len(data) && p < 3+3*16; p += 3 {
			next.edit(data[p], data[p+1], data[p+2])
		}
		d := delta.Diff(old.sr, next.sr)
		shuffled := data[2] != 0
		if shuffled {
			// A fuzz-chosen permutation: either order may be refused
			// (a delete before the upsert that re-seats beside it is
			// not), but both searches must agree.
			ops := append([]delta.Op(nil), d.Ops...)
			for i := len(ops) - 1; i > 0; i-- {
				j := int(data[2]^byte(i*37)) % (i + 1)
				ops[i], ops[j] = ops[j], ops[i]
			}
			d.Ops = ops
		}

		got, ref := old.sr.Clone(), old.sr.Clone()
		gotT, gotErr := delta.ApplyOps(got, d)
		refT, refErr := delta.ApplyOpsRef(ref, d)
		if (gotErr == nil) != (refErr == nil) || (gotErr != nil && gotErr.Error() != refErr.Error()) {
			t.Fatalf("ops %v: binary search refused with %v, reference with %v", opList(d), gotErr, refErr)
		}
		// The windowed round trip agrees with the whole-slice one.
		if want := gotErr == nil && partition.SameSlice(got, next.sr); delta.Reproduces(old.sr, d, next.sr) != want {
			t.Fatalf("ops %v: Reproduces says %v, applying them to a copy of the whole slice %v", opList(d), !want, want)
		}
		if gotErr != nil {
			if !shuffled {
				t.Fatalf("diff ops %v do not apply: %v", opList(d), gotErr)
			}
			return
		}
		if !partition.SameSlice(got, ref) || !reflect.DeepEqual(gotT, refT) {
			t.Fatalf("ops %v: binary search touched %v, reference %v (same slice: %v)",
				opList(d), gotT, refT, partition.SameSlice(got, ref))
		}
		if !shuffled && !partition.SameSlice(got, next.sr) {
			t.Fatalf("ops %v do not reproduce the new sequence", opList(d))
		}
		for i := 1; i < len(got.Recs); i++ {
			a, b := got.Recs[i-1], got.Recs[i]
			if a.Key() > b.Key() || (a.Key() == b.Key() && a.Tuple.RowID > b.Tuple.RowID) ||
				(a.Key() == b.Key() && a.Tuple.RowID == b.Tuple.RowID && a.Kind >= b.Kind) {
				t.Fatalf("ops %v: entries %d,%d out of identity order", opList(d), i-1, i)
			}
		}
		from := len(got.Recs)
		if len(gotT) > 0 {
			from = gotT[0]
		}
		if partition.FirstDiff(old.sr, got) < from {
			t.Fatalf("ops %v: entry %d changed below the lowest touched index %d",
				opList(d), partition.FirstDiff(old.sr, got), from)
		}
		checkTouchedCover(t, old.sr, got, gotT)
	})
}

// checkTouchedCover fails unless touched holds every index of next whose
// entry is not old's entry of the same identity, or whose neighbour's
// identity is not the one it had in old: the entries whose signatures
// the delta invalidated unless the owner re-signed them.
func checkTouchedCover(t *testing.T, old, next *core.SignedRelation, touched []int) {
	t.Helper()
	type ident struct {
		k, r uint64
		kind core.Kind
	}
	id := func(rec *core.SignedRecord) ident { return ident{rec.Key(), rec.Tuple.RowID, rec.Kind} }
	at := map[ident]int{}
	for i, rec := range old.Recs {
		at[id(rec)] = i
	}
	isTouched := map[int]bool{}
	for _, i := range touched {
		isTouched[i] = true
	}
	neighbour := func(recs []*core.SignedRecord, i int) (ident, bool) {
		if i < 0 || i >= len(recs) {
			return ident{}, false
		}
		return id(recs[i]), true
	}
	for j, rec := range next.Recs {
		i, ok := at[id(rec)]
		changed := !ok || !partition.SameRecord(old.Recs[i], rec)
		for _, step := range []int{-1, 1} {
			if nid, nok := neighbour(next.Recs, j+step); ok {
				oid, ook := neighbour(old.Recs, i+step)
				changed = changed || nok != ook || nid != oid
			}
			// A changed neighbour invalidates this entry's signature too.
			if j+step >= 0 && j+step < len(next.Recs) {
				n := next.Recs[j+step]
				if ni, nok := at[id(n)]; !nok || !partition.SameRecord(old.Recs[ni], n) {
					changed = true
				}
			}
		}
		if changed && !isTouched[j] {
			t.Fatalf("entry %d changed (or its neighbourhood did) but is not touched %v", j, touched)
		}
	}
}

// TestReproducesRefusesOutOfOrder: the windowed round trip is sound only
// on a sequence in identity order, so an old sequence out of order is
// refused even when the whole-slice round trip of the same ops would
// pass — LogCommit then logs the full slice.
func TestReproducesRefusesOutOfOrder(t *testing.T) {
	old := newDiffSlice(6, true, true)
	next := &diffSlice{sr: old.sr.Clone(), next: 128}
	next.edit(0, 3, 0) // re-sign entry 3
	d := delta.Diff(old.sr, next.sr)
	if !delta.Reproduces(old.sr, d, next.sr) {
		t.Fatal("an in-order re-sign does not round-trip")
	}
	old.sr.Recs[5], old.sr.Recs[6] = old.sr.Recs[6], old.sr.Recs[5]
	next.sr.Recs[5], next.sr.Recs[6] = next.sr.Recs[6], next.sr.Recs[5]
	probe := old.sr.Clone()
	if _, err := delta.ApplyOps(probe, d); err != nil || !partition.SameSlice(probe, next.sr) {
		t.Fatalf("fixture: the whole-slice round trip fails (%v)", err)
	}
	if delta.Reproduces(old.sr, d, next.sr) {
		t.Fatal("an out-of-order sequence round-trips")
	}
}
