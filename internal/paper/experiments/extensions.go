package experiments

import (
	"fmt"
	"io"

	"vcqr/internal/delta"
	"vcqr/internal/hashx"
	"vcqr/internal/paper/multiorder"
	"vcqr/internal/relation"
	"vcqr/internal/workload"
)

// DeltaRow reports E10: incremental-sync traffic in record operations,
// against the full-snapshot alternative, for each mutation type. The
// Section 6.3 locality argument predicts a constant ~3 ops per mutation
// regardless of table size.
type DeltaRow struct {
	N           int
	SnapshotOps int // records a full snapshot would ship
	UpdateOps   int // delta ops for one attribute update
	InsertOps   int // delta ops for one insert
	DeleteOps   int // delta ops for one delete
}

// DeltaSync runs E10.
func (e *Env) DeltaSync() ([]DeltaRow, error) {
	ns := []int{256, 1024}
	if e.Short {
		ns = []int{128, 512}
	}
	var rows []DeltaRow
	for _, n := range ns {
		h := hashx.New()
		sr, _, err := e.buildUniform(h, n, 32, 2, int64(n)+7)
		if err != nil {
			return nil, err
		}
		row := DeltaRow{N: n, SnapshotOps: len(sr.Recs)}

		attrs := []relation.Value{relation.BytesVal([]byte{0xbe, 0xef})}

		before := sr.Clone()
		rec := sr.Recs[n/2]
		if _, err := sr.UpdateAttrs(h, e.Key, rec.Key(), rec.Tuple.RowID, attrs); err != nil {
			return nil, err
		}
		row.UpdateOps = delta.Diff(before, sr).Size()

		before = sr.Clone()
		if _, err := sr.Insert(h, e.Key, relation.Tuple{Key: rec.Key() + 1, Attrs: attrs}); err != nil {
			return nil, err
		}
		row.InsertOps = delta.Diff(before, sr).Size()

		before = sr.Clone()
		victim := sr.Recs[n/3]
		if _, err := sr.Delete(h, e.Key, victim.Key(), victim.Tuple.RowID); err != nil {
			return nil, err
		}
		row.DeleteOps = delta.Diff(before, sr).Size()

		rows = append(rows, row)
	}
	return rows, nil
}

// PrintDeltaSync renders E10.
func PrintDeltaSync(w io.Writer, rows []DeltaRow) {
	lines := make([]string, 0, len(rows))
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf(
			"n=%5d  snapshot=%5d records  update-delta=%d ops  insert-delta=%d ops  delete-delta=%d ops",
			r.N, r.SnapshotOps, r.UpdateOps, r.InsertOps, r.DeleteOps))
	}
	printTable(w, "E10 / delta sync — per-mutation sync traffic vs full snapshot (Section 6.3 locality, deployed)", lines)
}

// MultiOrderRow reports E11: the signing-cost multiplier of supporting
// range verification on k attributes — the Section 6.3 observation
// ("analogous to creating B+-trees on those attributes") and the baseline
// the paper's future-work multi-dimensional indices target.
type MultiOrderRow struct {
	N          int
	Orders     int
	Signatures int
	Multiplier float64
}

// MultiOrder runs E11 with 1, 2 and 3 orderings over the employee table.
func (e *Env) MultiOrder() ([]MultiOrderRow, error) {
	n := e.scale(120)
	specsAll := []multiorder.OrderSpec{
		{Col: "Dept", L: 0, U: 64, Base: 2},
		{Col: "ID", L: 0, U: 1 << 20, Base: 2},
	}
	var rows []MultiOrderRow
	for k := 0; k <= len(specsAll); k++ {
		h := hashx.New()
		rel, err := workload.Employees(workload.EmployeeConfig{
			N: n, L: 0, U: 1 << 32, PhotoSize: 8, Seed: 77,
		})
		if err != nil {
			return nil, err
		}
		// ID column must be positive and inside its declared domain; the
		// generator assigns 0..n-1, so shift by one.
		idIdx := rel.Schema.ColIndex("ID")
		for i := range rel.Tuples {
			rel.Tuples[i].Attrs[idIdx] = relation.IntVal(rel.Tuples[i].Attrs[idIdx].Int + 1)
		}
		tab, err := multiorder.Build(h, e.Key, rel, 2, specsAll[:k])
		if err != nil {
			return nil, err
		}
		rows = append(rows, MultiOrderRow{
			N:          n,
			Orders:     1 + k,
			Signatures: tab.Signatures,
			Multiplier: tab.CostMultiplier(),
		})
	}
	return rows, nil
}

// PrintMultiOrder renders E11.
func PrintMultiOrder(w io.Writer, rows []MultiOrderRow) {
	lines := make([]string, 0, len(rows))
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("n=%4d  orders=%d  signatures=%5d  multiplier=%.1fx",
			r.N, r.Orders, r.Signatures, r.Multiplier))
	}
	printTable(w, "E11 / multiple sort orders — signing-cost multiplier per verifiable attribute", lines)
}
