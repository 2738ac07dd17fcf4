package experiments

import (
	"fmt"
	"io"
	"time"

	"vcqr/internal/hashx"
	"vcqr/internal/paper/costmodel"
	"vcqr/internal/verify"
)

// Fig10Row is one point of Figure 10: user computation overhead against
// the number base B, one series per result cardinality.
type Fig10Row struct {
	B          uint64
	Q          int
	MeasuredMs float64 // wall-clock verification time
	Hashes     uint64  // hash operations the serving verifier counted
	// FormulaHashes is formula (5)'s count, whose user rebuilds formula
	// (3)'s chains per row; the serving verifier binds a disclosed key
	// through its leaf instead, so only the boundary proofs vary with B.
	FormulaHashes int
	ModelMs       float64 // formula (5) at paper constants (Chash = 50us)
	ModelAtHW     float64 // formula (5) at this machine's measured Chash/Csign
}

// Fig10 regenerates Figure 10: verification cost as a function of B for
// |Q| in {1, 5, 10}. Wall-clock numbers on modern hardware are ~three
// orders of magnitude below the paper's 2005 constants, so the harness
// also evaluates the model at measured constants — the curve *shape*
// (minimum at B in {2,3}, rising beyond) is the reproduced result.
func (e *Env) Fig10() ([]Fig10Row, error) {
	chash, csign := MeasureConstants(e.Key)
	n := e.scale(40)
	qs := []int{1, 5, 10}
	var rows []Fig10Row
	for b := uint64(2); b <= 10; b++ {
		h := hashx.New()
		sr, _, err := e.buildUniform(h, n, 32, b, int64(b))
		if err != nil {
			return nil, err
		}
		pub, role := e.publisherFor(h, sr)
		v := verify.New(h, e.Key.Public(), sr.Params, sr.Schema)
		for _, q := range qs {
			if q > n {
				continue
			}
			query, err := greaterThanQuery(sr, "Uniform", q)
			if err != nil {
				return nil, err
			}
			res, err := pub.Execute("all", query)
			if err != nil {
				return nil, err
			}
			// Warm up once, then measure the best of three runs.
			if _, err := v.VerifyResult(query, role, res); err != nil {
				return nil, err
			}
			best := time.Duration(1 << 62)
			var hashes uint64
			for rep := 0; rep < 3; rep++ {
				h.ResetOps()
				start := time.Now()
				if _, err := v.VerifyResult(query, role, res); err != nil {
					return nil, err
				}
				el := time.Since(start)
				if el < best {
					best = el
					hashes = h.Ops()
				}
			}
			model := costmodel.PaperDefaults()
			model.B = b
			hw := model
			hw.Chash, hw.Csign = chash, csign
			rows = append(rows, Fig10Row{
				B:             b,
				Q:             q,
				MeasuredMs:    float64(best.Microseconds()) / 1000,
				Hashes:        hashes,
				FormulaHashes: model.UserHashes(q),
				ModelMs:       float64(model.UserCost(q).Microseconds()) / 1000,
				ModelAtHW:     float64(hw.UserCost(q).Microseconds()) / 1000,
			})
		}
	}
	return rows, nil
}

// PrintFig10 renders the B sweep.
func PrintFig10(w io.Writer, rows []Fig10Row) {
	lines := make([]string, 0, len(rows))
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("B=%2d  |Q|=%3d  measured=%8.3fms (%6d serving hashes, formula (5) %6d)  model(paper)=%9.2fms  model(this hw)=%8.3fms",
			r.B, r.Q, r.MeasuredMs, r.Hashes, r.FormulaHashes, r.ModelMs, r.ModelAtHW))
	}
	printTable(w, "E2 / Figure 10 — user computation overhead vs base B", lines)
}
