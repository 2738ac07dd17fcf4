package server_test

import (
	"runtime"
	"testing"

	"vcqr/internal/delta"
)

// TestDeltaStagingAllocBudget pins what an in-process delta stages on a
// 4,096-row K = 1 table: the staging clone shares every record by
// pointer and the three re-signed records are the only ones copied, so
// a 3-op delta allocates a pointer per record plus what it touches
// (≈ 94 KB). A clone that copied every record header would allocate
// ≈ 848 KB.
func TestDeltaStagingAllocBudget(t *testing.T) {
	const n, deltas = 4096, 8
	h, owner := build(t, n)
	s := newBareServer(t, h)
	if err := s.AddRelation(owner.Clone(), false); err != nil {
		t.Fatal(err)
	}
	ds := make([]delta.Delta, deltas+1)
	for i := range ds {
		ds[i] = ownerUpdate(t, h, owner, 2+i*(n/len(ds)), []byte{byte(i)})
		if len(ds[i].Ops) != 3 {
			t.Fatalf("delta %d has %d ops, want 3", i, len(ds[i].Ops))
		}
	}
	if _, err := s.ApplyDelta(ds[0]); err != nil { // warm the server's lazy state
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, d := range ds[1:] {
		if _, err := s.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perDelta := float64(after.TotalAlloc-before.TotalAlloc) / deltas

	const budget = 128 << 10
	t.Logf("in-process 3-op delta on %d rows: %.0f B allocated (budget %d)", n, perDelta, budget)
	if perDelta > budget && !raceEnabled {
		t.Fatalf("a 3-op delta allocates %.0f B, budget %d", perDelta, budget)
	}
}
