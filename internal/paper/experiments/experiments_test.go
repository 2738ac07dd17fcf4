package experiments

import (
	"bytes"
	"sync"
	"testing"

	"vcqr/internal/engine"
	"vcqr/internal/hashx"
)

var (
	envOnce sync.Once
	testEnv *Env
)

func env(t testing.TB) *Env {
	envOnce.Do(func() {
		e, err := NewEnv(true)
		if err != nil {
			t.Fatalf("env: %v", err)
		}
		testEnv = e
	})
	return testEnv
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	rows, err := env(t).Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// The figure's headline shape: overhead falls as |Q| grows, for every
	// record size, in both model and measurement.
	byMr := map[int][]Fig9Row{}
	for _, r := range rows {
		byMr[r.Mr] = append(byMr[r.Mr], r)
	}
	for mr, series := range byMr {
		for i := 1; i < len(series); i++ {
			if series[i].MeasuredPct >= series[i-1].MeasuredPct {
				t.Errorf("Mr=%d: measured overhead not falling at |Q|=%d (%.1f >= %.1f)",
					mr, series[i].Q, series[i].MeasuredPct, series[i-1].MeasuredPct)
			}
			if series[i].ModelPct >= series[i-1].ModelPct {
				t.Errorf("Mr=%d: model overhead not falling at |Q|=%d", mr, series[i].Q)
			}
		}
	}
	var buf bytes.Buffer
	PrintFig9(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("printer produced nothing")
	}
}

// TestResultBytes: a result's payload is positive when it has rows, and
// an empty result, which still carries authentication bytes, has none.
func TestResultBytes(t *testing.T) {
	h := hashx.New()
	sr, _, err := env(t).buildUniform(h, 20, 16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	pub, _ := env(t).publisherFor(h, sr)
	q, err := greaterThanQuery(sr, "Uniform", 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pub.Execute("all", q)
	if err != nil {
		t.Fatal(err)
	}
	if ResultBytes(res) <= 0 {
		t.Fatal("result bytes must be positive")
	}
	gap := engine.Query{Relation: "Uniform", KeyLo: sr.Recs[1].Key() + 1, KeyHi: sr.Recs[2].Key() - 1}
	empty, err := pub.Execute("all", gap)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Rows()) != 0 || ResultBytes(empty) != 0 {
		t.Fatal("empty result has payload bytes")
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	rows, err := env(t).Fig10()
	if err != nil {
		t.Fatal(err)
	}
	// Paper's finding: the model's optimum lies at B in {2, 3}; by B = 10
	// the cost clearly exceeds the optimum, for each |Q| series.
	series := map[int]map[uint64]float64{}
	for _, r := range rows {
		if series[r.Q] == nil {
			series[r.Q] = map[uint64]float64{}
		}
		series[r.Q][r.B] = r.ModelMs
	}
	for q, s := range series {
		minB := uint64(2)
		for b, c := range s {
			if c < s[minB] {
				minB = b
			}
		}
		if minB != 2 && minB != 3 {
			t.Errorf("|Q|=%d: model minimum at B=%d, paper says 2 or 3", q, minB)
		}
		if s[10] <= s[minB] {
			t.Errorf("|Q|=%d: cost at B=10 not above the optimum", q)
		}
	}
	var buf bytes.Buffer
	PrintFig10(&buf, rows)
}

func TestTable1Sane(t *testing.T) {
	r := env(t).Table1()
	if r.ChashMeasured <= 0 || r.CsignMeasured <= 0 {
		t.Fatal("non-positive measured constants")
	}
	// The paper's ratio claim: signature verification is much more
	// expensive than hashing (around 100x in 2005; well above 10x on any
	// hardware).
	if r.CsignMeasured < 10*r.ChashMeasured {
		t.Errorf("Csign/Chash = %.1f, expected >> 10",
			float64(r.CsignMeasured)/float64(r.ChashMeasured))
	}
	var buf bytes.Buffer
	PrintTable1(&buf, r)
}

func TestCuserValidatesPaperNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	rows, err := env(t).Cuser()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Model within 10% of the paper's printed claims.
		ratio := r.ModelMs / r.PaperClaimMs
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("|Q|=%d: model %.1fms vs paper %.1fms", r.Q, r.ModelMs, r.PaperClaimMs)
		}
		// The serving verifier binds a disclosed key through its leaf
		// instead of rebuilding formula (3)'s chains per row, so it hashes
		// less than formula (5) counts, yet at least once per row.
		if r.MeasuredHashes > 0 && (r.MeasuredHashes >= uint64(r.FormulaHashes) || r.MeasuredHashes < uint64(r.Q)) {
			t.Errorf("|Q|=%d: serving hashes %d vs formula (5) %d", r.Q, r.MeasuredHashes, r.FormulaHashes)
		}
	}
	var buf bytes.Buffer
	PrintCuser(&buf, rows)
}

func TestVOSizeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	rows, err := env(t).VOSize()
	if err != nil {
		t.Fatal(err)
	}
	// Claim 1: ours is independent of table size — same |Q| across n must
	// give (nearly) identical VO bytes.
	byQ := map[int][]VOSizeRow{}
	for _, r := range rows {
		byQ[r.Q] = append(byQ[r.Q], r)
	}
	for q, series := range byQ {
		for i := 1; i < len(series); i++ {
			a, b := series[i-1].OursBytes, series[i].OursBytes
			diff := a - b
			if diff < 0 {
				diff = -diff
			}
			if float64(diff) > 0.1*float64(a) {
				t.Errorf("|Q|=%d: ours VO varies with n: %d vs %d", q, a, b)
			}
			// Claim 2: devanbu grows with n.
			if series[i].DevanbuBytes <= series[i-1].DevanbuBytes {
				t.Errorf("|Q|=%d: devanbu VO not growing with n", q)
			}
		}
	}
	var buf bytes.Buffer
	PrintVOSize(&buf, rows)
}

func TestUpdateClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	rows, err := env(t).Update()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.OursSigsPerUpdate != 3 {
			t.Errorf("n=%d: ours %.1f sigs/update, paper says 3", r.N, r.OursSigsPerUpdate)
		}
		if r.OursLeafSpanMax > 2 {
			t.Errorf("n=%d: leaf span max %d, paper says at most 2 adjoining leaves", r.N, r.OursLeafSpanMax)
		}
		// Devanbu must propagate through at least log2(n) nodes.
		if r.DevNodesPerUpdate < 8 {
			t.Errorf("n=%d: devanbu %.1f nodes/update, expected >= log2(n)", r.N, r.DevNodesPerUpdate)
		}
	}
	var buf bytes.Buffer
	PrintUpdate(&buf, rows)
}

func TestAblationSpeedupGrows(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	rows, err := env(t).Ablation()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Speedup <= rows[i-1].Speedup {
			t.Errorf("speedup not growing with domain size: %v", rows)
		}
	}
	last := rows[len(rows)-1]
	if last.LinearHashes < uint64(last.Span)/2 {
		t.Errorf("linear hashes %d suspiciously small for span %d", last.LinearHashes, last.Span)
	}
	var buf bytes.Buffer
	PrintAblation(&buf, rows)
}

func TestAllAttacksDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	rows, err := env(t).Attacks()
	if err != nil {
		t.Fatal(err)
	}
	mounted := 0
	for _, r := range rows {
		if !r.Mounted {
			t.Errorf("attack %s could not be mounted: %s", r.Attack, r.Detail)
			continue
		}
		mounted++
		if !r.Detected {
			t.Errorf("attack %s NOT detected", r.Attack)
		}
	}
	if mounted < 8 {
		t.Errorf("only %d attacks mounted", mounted)
	}
	var buf bytes.Buffer
	PrintAttacks(&buf, rows)
}

func TestDeltaSyncLocality(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	rows, err := env(t).DeltaSync()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for name, ops := range map[string]int{
			"update": r.UpdateOps, "insert": r.InsertOps, "delete": r.DeleteOps,
		} {
			if ops != 3 {
				t.Errorf("n=%d: %s delta = %d ops, want 3 (Section 6.3 locality)", r.N, name, ops)
			}
		}
		if r.SnapshotOps <= 3*10 {
			t.Errorf("n=%d: snapshot suspiciously small", r.N)
		}
	}
	var buf bytes.Buffer
	PrintDeltaSync(&buf, rows)
}

func TestMultiOrderMultiplier(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	rows, err := env(t).MultiOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Multiplier != float64(r.Orders) {
			t.Errorf("orders=%d: multiplier %.1f, want %d (one signature set per sort order)",
				r.Orders, r.Multiplier, r.Orders)
		}
	}
	var buf bytes.Buffer
	PrintMultiOrder(&buf, rows)
}

func TestPrecisionScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	r, err := env(t).Precision()
	if err != nil {
		t.Fatal(err)
	}
	if r.OursRows != 3 {
		t.Errorf("ours rows = %d, want 3 (2000, 3500, 8010)", r.OursRows)
	}
	if len(r.OursLeakedKeys) != 0 {
		t.Errorf("ours leaked keys %v", r.OursLeakedKeys)
	}
	if len(r.DevanbuLeakedKeys) == 0 || !r.DevanbuLeakedTuple {
		t.Error("devanbu should have leaked the 12100 boundary tuple")
	}
	for _, k := range r.DevanbuLeakedKeys {
		if k != 12100 {
			t.Errorf("unexpected leaked key %d", k)
		}
	}
	var buf bytes.Buffer
	PrintPrecision(&buf, r)
}
