package experiments

import (
	"fmt"
	"io"

	"vcqr/internal/core"
	"vcqr/internal/hashx"
)

// AblationRow contrasts the conceptual linear chain (formula (2)) with
// the Section 5.1 base-B optimization at increasing domain sizes: the
// hash-operation counts for computing one record digest. The linear
// scheme is O(U-L); the optimized one is O(B log_B(U-L)) — the difference
// the paper quantifies as "2^32 hashes ... almost 60 hours" vs
// milliseconds.
type AblationRow struct {
	Span         uint64
	LinearHashes uint64
	BaseBHashes  uint64
	Speedup      float64
}

// Ablation runs E7: sweep domain sizes, count hashes for both digest
// constructions on the same key.
func (e *Env) Ablation() ([]AblationRow, error) {
	spans := []uint64{1 << 10, 1 << 14, 1 << 18, 1 << 22}
	if e.Short {
		spans = []uint64{1 << 10, 1 << 14, 1 << 18}
	}
	var rows []AblationRow
	for _, span := range spans {
		key := span / 3 // an arbitrary interior key
		p, err := core.NewParams(0, span, 2)
		if err != nil {
			return nil, err
		}
		hLin := hashx.New()
		if _, err := core.LinearG(hLin, p, key, core.Up); err != nil {
			return nil, err
		}
		lin := hLin.Ops()

		hOpt := hashx.New()
		root := hOpt.Hash([]byte("r"))
		if _, err := core.EntryG(hOpt, p, key, core.KindRecord, root, root, hOpt.Hash([]byte("a"))); err != nil {
			return nil, err
		}
		opt := hOpt.Ops()
		rows = append(rows, AblationRow{
			Span:         span,
			LinearHashes: lin,
			BaseBHashes:  opt,
			Speedup:      float64(lin) / float64(opt),
		})
	}
	return rows, nil
}

// PrintAblation renders E7.
func PrintAblation(w io.Writer, rows []AblationRow) {
	lines := make([]string, 0, len(rows))
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("span=2^%2d  linear=%10d hashes  base-B=%5d hashes  speedup=%10.0fx",
			log2(r.Span), r.LinearHashes, r.BaseBHashes, r.Speedup))
	}
	printTable(w, "E7 / Section 5.1 ablation — linear chain vs base-B digit chains (one digest, both directions)", lines)
}

func log2(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
