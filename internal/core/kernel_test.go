package core

import (
	"testing"

	"vcqr/internal/hashx"
)

// buildFormat1 is the hash count of Build over goldenRelation per base in
// record format 1, whose key leaf widens each record's attribute tree.
var buildFormat1 = map[uint64]uint64{2: 2461, 4: 2125, 16: 3757}

// TestOpsMatchPreKernelCounts: batching the Hasher's counter must keep
// totals exact — experiments report Chash from Ops(). The EntryG and
// VerifyBoundary counts are the ones the pre-kernel implementation
// (commit c274afd) reported for the same calls; the Build counts are
// record format 1's, each record's attribute tree one key leaf wider.
func TestOpsMatchPreKernelCounts(t *testing.T) {
	want := map[uint64]struct {
		build, entry uint64
		boundary     [6]uint64
	}{
		2:  {buildFormat1[2], 102, [6]uint64{25, 24, 12, 19, 37, 37}},
		4:  {buildFormat1[4], 86, [6]uint64{37, 35, 16, 23, 53, 53}},
		16: {buildFormat1[16], 142, [6]uint64{91, 83, 34, 49, 125, 125}},
	}
	for _, base := range []uint64{2, 4, 16} {
		h := hashx.New()
		p := mustParams(t, 0, 1<<32, base)
		rel := goldenRelation(t, p, goldenKeys)
		h.ResetOps()
		sr, err := Build(h, signKey(t), p, rel)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Ops(); got != want[base].build {
			t.Errorf("base %d: Build counted %d ops, format 1 counts %d", base, got, want[base].build)
		}
		up, down := repRoots(t, h, p, sr.Recs[3])
		h.ResetOps()
		if _, err := EntryG(h, p, 77777, KindRecord, up, down, sr.Recs[3].AttrRoot); err != nil {
			t.Fatal(err)
		}
		if got := h.Ops(); got != want[base].entry {
			t.Errorf("base %d: EntryG counted %d ops, pre-kernel %d", base, got, want[base].entry)
		}
		for i, c := range []struct {
			idx   int
			dir   Direction
			bound uint64
		}{{3, Up, 77778}, {3, Up, 77777 + 9}, {3, Down, 77776}, {3, Down, 77777 - 4}, {0, Up, 1}, {6, Down, p.U - 1}} {
			proof, err := sr.ProveBoundary(h, c.idx, c.dir, c.bound)
			if err != nil {
				t.Fatal(err)
			}
			h.ResetOps()
			if _, err := VerifyBoundary(h, p, proof, c.dir, c.bound); err != nil {
				t.Fatal(err)
			}
			if got := h.Ops(); got != want[base].boundary[i] {
				t.Errorf("base %d: VerifyBoundary #%d counted %d ops, pre-kernel %d", base, i, got, want[base].boundary[i])
			}
		}
	}
}

// TestEntryGAllocs: recomputing g for a known key allocates the returned
// digest and nothing per digit — allocation counts repeat exactly, so
// this (not a timing) is the gate on the verification kernel.
func TestEntryGAllocs(t *testing.T) {
	for _, base := range []uint64{2, 16} {
		h := hashx.New()
		p := mustParams(t, 0, 1<<32, base)
		up, down, attr := h.Hash([]byte("u")), h.Hash([]byte("d")), h.Hash([]byte("a"))
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := EntryG(h, p, 77777, KindRecord, up, down, attr); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 && !raceEnabled {
			t.Errorf("base %d: EntryG %v allocs/op, want <= 2", base, allocs)
		}
	}
}
