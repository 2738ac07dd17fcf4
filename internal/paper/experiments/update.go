package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"vcqr/internal/hashx"
	"vcqr/internal/paper/baseline/devanbu"
	"vcqr/internal/paper/btree"
	"vcqr/internal/relation"
)

// UpdateRow compares the per-update maintenance cost of the two schemes
// (Section 6.3): the chained-signature scheme re-signs 3 records whose
// signatures live in at most 2 adjoining B+-tree leaves; the Merkle-tree
// baseline recomputes the path to the root and re-signs the root — a
// serialization hot-spot.
type UpdateRow struct {
	N int
	// Ours.
	OursSigsPerUpdate  float64
	OursLeafSpanAvg    float64
	OursLeafSpanMax    int
	OursRootTouchedPct float64 // always 0: no global structure
	// Devanbu.
	DevNodesPerUpdate float64
	DevRootTouchedPct float64 // always 100
}

// Update runs E6: apply random attribute updates to signed relations of
// increasing size and account the work.
func (e *Env) Update() ([]UpdateRow, error) {
	ns := []int{1024, 4096}
	if e.Short {
		ns = []int{256, 1024}
	}
	const updates = 50
	var rows []UpdateRow
	for _, n := range ns {
		h := hashx.New()
		sr, rel, err := e.buildUniform(h, n, 32, 2, int64(n)+1)
		if err != nil {
			return nil, err
		}
		st, err := devanbu.Build(h, e.Key, rel)
		if err != nil {
			return nil, err
		}
		// Mirror the signature chain into a B+-tree as Section 6.3
		// proposes, to measure leaf locality.
		bt, err := btree.New(128)
		if err != nil {
			return nil, err
		}
		for i := 1; i <= sr.Len(); i++ {
			rec := sr.Recs[i]
			if err := bt.Insert(btree.Entry{Key: rec.Key(), RowID: rec.Tuple.RowID, Sig: rec.Sig}); err != nil {
				return nil, err
			}
		}
		rng := rand.New(rand.NewSource(int64(n)))
		var sigsTotal, spanTotal, devNodes int
		spanMax := 0
		for u := 0; u < updates; u++ {
			idx := rng.Intn(sr.Len()) + 1
			rec := sr.Recs[idx]
			attrs := []relation.Value{relation.BytesVal([]byte{byte(u), byte(u >> 8)})}
			resigned, err := sr.UpdateAttrs(h, e.Key, rec.Key(), rec.Tuple.RowID, attrs)
			if err != nil {
				return nil, err
			}
			sigsTotal += resigned
			span, err := bt.LeafSpan(rec.Key(), rec.Tuple.RowID)
			if err != nil {
				return nil, err
			}
			spanTotal += span
			if span > spanMax {
				spanMax = span
			}
			dIdx := rng.Intn(n)
			work, err := st.Update(h, e.Key, dIdx, relation.Tuple{
				Key:   st.Tuples[dIdx+1].Key,
				Attrs: attrs,
			})
			if err != nil {
				return nil, err
			}
			devNodes += work
		}
		rows = append(rows, UpdateRow{
			N:                 n,
			OursSigsPerUpdate: float64(sigsTotal) / updates,
			OursLeafSpanAvg:   float64(spanTotal) / updates,
			OursLeafSpanMax:   spanMax,
			DevNodesPerUpdate: float64(devNodes) / updates,
			DevRootTouchedPct: 100,
		})
	}
	return rows, nil
}

// PrintUpdate renders E6.
func PrintUpdate(w io.Writer, rows []UpdateRow) {
	lines := make([]string, 0, len(rows))
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf(
			"n=%5d  ours: %.1f sigs/update, leaf span avg %.2f max %d, root touched 0%%   devanbu: %.1f tree nodes/update + 1 root re-sign, root touched %.0f%%",
			r.N, r.OursSigsPerUpdate, r.OursLeafSpanAvg, r.OursLeafSpanMax, r.DevNodesPerUpdate, r.DevRootTouchedPct))
	}
	printTable(w, "E6 / Section 6.3 — update cost: local re-signing vs root propagation", lines)
}
