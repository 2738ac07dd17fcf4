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
	// MeasuredHashes compares the implementation's hash count for a real
	// greater-than verification against the formula's hash count; the
	// ratio is the honest accounting of our two-sided g(r) (the paper's
	// formula models the one-sided greater-than digest).
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
			meas = fmt.Sprintf("%d (%.1fx formula; ours hashes both chains of formula (3))",
				r.MeasuredHashes, float64(r.MeasuredHashes)/float64(r.FormulaHashes))
		}
		lines = append(lines, fmt.Sprintf("|Q|=%5d  paper=%8.1fms  model=%8.1fms  formulaHashes=%7d  measuredHashes=%s",
			r.Q, r.PaperClaimMs, r.ModelMs, r.FormulaHashes, meas))
	}
	printTable(w, "E4 / Section 6.2 — Cuser closed-form validation", lines)
}
