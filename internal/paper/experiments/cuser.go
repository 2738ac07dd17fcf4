package experiments

import (
	"fmt"
	"io"

	"vcqr/internal/hashx"
	"vcqr/internal/paper/costmodel"
	"vcqr/internal/verify"
)

// CuserRow is one line of the Section 6.2 validation: the paper's
// closed-form Cuser claims next to the model and the implementation.
type CuserRow struct {
	Q            int
	PaperClaimMs float64 // the numbers printed in Section 6.2
	ModelMs      float64 // formula (5) at paper constants
	// MeasuredHashes is the serving verifier's hash count for a real
	// greater-than verification; FormulaHashes is formula (5)'s count,
	// whose user rebuilds formula (3)'s chains for every row. The serving
	// verifier binds a disclosed key through its attribute-tree leaf
	// instead (record format 1), so it counts far fewer.
	MeasuredHashes uint64
	FormulaHashes  int
}

// Cuser runs E4: validate the three Section 6.2 numbers against formula
// (5) and compare the implementation's hash counts for small Q.
func (e *Env) Cuser() ([]CuserRow, error) {
	model := costmodel.PaperDefaults()
	claims := map[int]float64{1: 15.5, 100: 689, 1000: 6810}
	n := e.scale(120)
	h := hashx.New()
	sr, _, err := e.buildUniform(h, n, 32, 2, 99)
	if err != nil {
		return nil, err
	}
	pub, role := e.publisherFor(h, sr)
	v := verify.New(h, e.Key.Public(), sr.Params, sr.Schema)
	var rows []CuserRow
	for _, q := range []int{1, 100, 1000} {
		row := CuserRow{
			Q:             q,
			PaperClaimMs:  claims[q],
			ModelMs:       float64(model.UserCost(q).Microseconds()) / 1000,
			FormulaHashes: model.UserHashes(q),
		}
		if q <= n {
			query, err := greaterThanQuery(sr, "Uniform", q)
			if err != nil {
				return nil, err
			}
			res, err := pub.Execute("all", query)
			if err != nil {
				return nil, err
			}
			h.ResetOps()
			if _, err := v.VerifyResult(query, role, res); err != nil {
				return nil, err
			}
			row.MeasuredHashes = h.Ops()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintCuser renders E4.
func PrintCuser(w io.Writer, rows []CuserRow) {
	lines := make([]string, 0, len(rows))
	for _, r := range rows {
		meas := "-"
		if r.MeasuredHashes > 0 {
			meas = fmt.Sprintf("%d (%.2fx formula; the key binds through its leaf, not the chains)",
				r.MeasuredHashes, float64(r.MeasuredHashes)/float64(r.FormulaHashes))
		}
		lines = append(lines, fmt.Sprintf("|Q|=%5d  paper=%8.1fms  model=%8.1fms  formula(5)Hashes=%7d  servingHashes=%s",
			r.Q, r.PaperClaimMs, r.ModelMs, r.FormulaHashes, meas))
	}
	printTable(w, "E4 / Section 6.2 — Cuser closed-form validation", lines)
}
