package experiments

import (
	"fmt"
	"io"
	"time"

	"vcqr/internal/hashx"
	"vcqr/internal/paper/costmodel"
	"vcqr/internal/sig"
)

// Table1Result reports the measured cost parameters of Table 1 next to
// the paper's 2005 values.
type Table1Result struct {
	ChashMeasured time.Duration
	CsignMeasured time.Duration
	ChashPaper    time.Duration
	CsignPaper    time.Duration
	Mdigest       int // bits
	Msign         int // bits
}

// MeasureConstants times one hash operation and one signature
// verification on this machine.
func MeasureConstants(key *sig.PrivateKey) (chash, csign time.Duration) {
	h := hashx.New()
	m := hashx.U64Pair(12345, 7)
	const hn = 50000
	start := time.Now()
	d := h.First(m)
	for i := 1; i < hn; i++ {
		d = h.Next(d)
	}
	chash = time.Since(start) / hn
	_ = d

	dg := h.Hash([]byte("bench"))
	s := key.Sign(dg)
	const sn = 500
	start = time.Now()
	for i := 0; i < sn; i++ {
		key.Public().Verify(dg, s)
	}
	csign = time.Since(start) / sn
	return chash, csign
}

// Table1 runs E3.
func (e *Env) Table1() Table1Result {
	chash, csign := MeasureConstants(e.Key)
	paper := costmodel.PaperDefaults()
	return Table1Result{
		ChashMeasured: chash,
		CsignMeasured: csign,
		ChashPaper:    paper.Chash,
		CsignPaper:    paper.Csign,
		Mdigest:       hashx.DefaultSize * 8,
		Msign:         e.Key.Public().SigBytes() * 8,
	}
}

// PrintTable1 renders the parameter table.
func PrintTable1(w io.Writer, r Table1Result) {
	printTable(w, "E3 / Table 1 — cost parameters (measured vs paper)", []string{
		fmt.Sprintf("Chash    measured=%-12v paper=%v", r.ChashMeasured, r.ChashPaper),
		fmt.Sprintf("Csign    measured=%-12v paper=%v  (verify/hash ratio measured=%.0fx, paper says ~100x)",
			r.CsignMeasured, r.CsignPaper,
			float64(r.CsignMeasured)/float64(maxDur(r.ChashMeasured, 1))),
		fmt.Sprintf("Mdigest  %d bits (paper: 128)", r.Mdigest),
		fmt.Sprintf("Msign    %d bits (paper: 1024)", r.Msign),
	})
}

func maxDur(d time.Duration, floor time.Duration) time.Duration {
	if d < floor {
		return floor
	}
	return d
}
