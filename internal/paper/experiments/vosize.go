package experiments

import (
	"fmt"
	"io"

	"vcqr/internal/hashx"
	"vcqr/internal/paper/baseline/devanbu"
)

// VOSizeRow compares authentication traffic between this scheme and the
// Devanbu baseline for the same query over the same data: the Section 6.1
// claim that our VO is linear in the result size while the baseline also
// grows logarithmically with the table — and ships the two boundary
// tuples besides.
type VOSizeRow struct {
	N            int // table size
	Q            int // result size
	OursBytes    int
	DevanbuBytes int
	// DevanbuPayload is the inflated payload the baseline forces: every
	// attribute of every result tuple, projection notwithstanding.
	DevanbuPayload int
}

// VOSize runs E5 across table sizes and result sizes.
func (e *Env) VOSize() ([]VOSizeRow, error) {
	ns := []int{256, 1024, 4096}
	if e.Short {
		ns = []int{256, 1024}
	}
	qs := []int{1, 10, 100}
	const payload = 512 - 13
	var rows []VOSizeRow
	for _, n := range ns {
		h := hashx.New()
		sr, rel, err := e.buildUniform(h, n, payload, 2, int64(n))
		if err != nil {
			return nil, err
		}
		st, err := devanbu.Build(h, e.Key, rel)
		if err != nil {
			return nil, err
		}
		pub, _ := e.publisherFor(h, sr)
		for _, q := range qs {
			query, err := greaterThanQuery(sr, "Uniform", q)
			if err != nil {
				return nil, err
			}
			// Same range for both schemes. The baseline needs a bounded
			// range strictly inside the domain.
			lo := query.KeyLo
			hi := sr.Params.U - 1
			res, err := pub.Execute("all", query)
			if err != nil {
				return nil, err
			}
			ours := res.VO.Account(h.Size(), e.Key.Public().SigBytes()).Bytes()
			dres, err := st.Query(h, lo, hi)
			if err != nil {
				return nil, err
			}
			dv := dres.VOBytes(h.Size(), e.Key.Public().SigBytes())
			dpay := 0
			for _, t := range dres.Tuples[1 : len(dres.Tuples)-1] {
				dpay += t.Size()
			}
			rows = append(rows, VOSizeRow{
				N: n, Q: q, OursBytes: ours, DevanbuBytes: dv, DevanbuPayload: dpay,
			})
		}
	}
	return rows, nil
}

// PrintVOSize renders E5.
func PrintVOSize(w io.Writer, rows []VOSizeRow) {
	lines := make([]string, 0, len(rows))
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("n=%5d  |Q|=%4d  ours=%6dB  devanbu=%6dB (VO incl. 2 boundary tuples)  devanbu payload=%7dB",
			r.N, r.Q, r.OursBytes, r.DevanbuBytes, r.DevanbuPayload))
	}
	printTable(w, "E5 / Section 6.1 — VO size: ours (independent of n) vs Devanbu (log n + boundary tuples)", lines)
}
