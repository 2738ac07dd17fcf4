package experiments

import (
	"fmt"
	"io"

	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/paper/costmodel"
)

// Fig9Row is one point of Figure 9: user traffic overhead (%) against
// record size, one series per result cardinality |Q|.
type Fig9Row struct {
	Mr          int     // record size, bytes
	Q           int     // result cardinality
	VOBytes     int     // measured authentication traffic
	ResultBytes int     // measured result payload
	MeasuredPct float64 // VOBytes / ResultBytes * 100
	ModelPct    float64 // formula (4) at paper constants * 100
}

// Fig9 regenerates Figure 9: for each record size Mr and result size |Q|,
// run a greater-than query against a signed uniform relation, account the
// VO bytes, and compare the overhead with the formula (4) model.
func (e *Env) Fig9() ([]Fig9Row, error) {
	sizes := []int{64, 128, 256, 512, 1024, 2048}
	qs := []int{1, 2, 5, 10, 100}
	n := e.scale(160)
	if n < 120 {
		qs = []int{1, 2, 5, 10, 25}
	}
	model := costmodel.PaperDefaults()
	var rows []Fig9Row
	for _, mr := range sizes {
		h := hashx.New()
		payload := mr - 13 // tuple encoding: 8 key + 5 value framing
		if payload < 0 {
			payload = 0
		}
		sr, _, err := e.buildUniform(h, n, payload, 2, int64(mr))
		if err != nil {
			return nil, err
		}
		pub, _ := e.publisherFor(h, sr)
		for _, q := range qs {
			query, err := greaterThanQuery(sr, "Uniform", q)
			if err != nil {
				return nil, err
			}
			res, err := pub.Execute("all", query)
			if err != nil {
				return nil, err
			}
			acc := res.VO.Account(h.Size(), e.Key.Public().SigBytes())
			vo := acc.Bytes()
			payloadBytes := ResultBytes(res)
			rows = append(rows, Fig9Row{
				Mr:          mr,
				Q:           q,
				VOBytes:     vo,
				ResultBytes: payloadBytes,
				MeasuredPct: 100 * float64(vo) / float64(payloadBytes),
				ModelPct:    100 * model.TrafficOverhead(q, mr),
			})
		}
	}
	return rows, nil
}

// ResultBytes returns the payload size of a result's rows (|Q| * Mr in
// the paper's notation): keys plus disclosed values of EntryResult
// entries — the denominator of the figure's overhead.
func ResultBytes(res *engine.Result) int {
	n := 0
	for _, e := range res.VO.Entries {
		if e.Mode != engine.EntryResult {
			continue
		}
		n += 8
		for _, d := range e.Disclosed {
			n += d.Val.Size()
		}
	}
	return n
}

// PrintFig9 renders the experiment like the paper's figure: one series
// per |Q|, overhead percentage per record size.
func PrintFig9(w io.Writer, rows []Fig9Row) {
	lines := make([]string, 0, len(rows))
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("Mr=%5dB  |Q|=%4d  VO=%6dB  result=%8dB  measured=%7.1f%%  model=%7.1f%%",
			r.Mr, r.Q, r.VOBytes, r.ResultBytes, r.MeasuredPct, r.ModelPct))
	}
	printTable(w, "E1 / Figure 9 — user traffic overhead vs record size (greater-than queries)", lines)
}
