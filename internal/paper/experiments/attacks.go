package experiments

import (
	"fmt"
	"io"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/paper/adversary"
	"vcqr/internal/relation"
	"vcqr/internal/verify"
	"vcqr/internal/workload"
)

// AttackRow records the outcome of one adversarial attempt.
type AttackRow struct {
	Attack   string
	Mounted  bool   // the adversary managed to produce a response at all
	Detected bool   // the verifier rejected it
	Detail   string // rejection error
}

// Attacks runs E8: the full Section 3.2 attack matrix (plus the
// authenticity, access-control and replay threats) against a realistic
// relation. Every mounted attack must be detected.
func (e *Env) Attacks() ([]AttackRow, error) {
	h := hashx.New()
	rel, err := workload.Employees(workload.EmployeeConfig{
		N: 60, L: 0, U: 1 << 20, PhotoSize: 32, HiddenPct: 10, Seed: 4,
	})
	if err != nil {
		return nil, err
	}
	p, err := core.NewParams(0, 1<<20, 2)
	if err != nil {
		return nil, err
	}
	sr, err := core.Build(h, e.Key, p, rel)
	if err != nil {
		return nil, err
	}
	roles := map[string]accessctl.Role{
		"manager": {Name: "manager"},
		"exec":    {Name: "exec", KeyHi: 1 << 18},
	}
	pub := engine.NewPublisher(h, e.Key.Public(), accessctl.NewPolicy(roles["manager"], roles["exec"]))
	if err := pub.AddRelation(sr, false); err != nil {
		return nil, err
	}
	adv := adversary.New(pub, h, e.Key.Public())
	v := verify.New(h, e.Key.Public(), p, rel.Schema)

	var rows []AttackRow
	for _, attack := range adversary.Attacks() {
		q := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 1 << 19}
		role := "manager"
		switch attack {
		case adversary.AttackHideAsFiltered:
			q.Filters = []engine.Filter{{Col: "Dept", Op: engine.OpLe, Val: relation.IntVal(3)}}
		case adversary.AttackWidenRewrite:
			role = "exec"
		}
		res, err := adv.Execute(role, q, attack)
		if err != nil {
			rows = append(rows, AttackRow{Attack: attack, Mounted: false, Detail: err.Error()})
			continue
		}
		_, verr := v.VerifyResult(q, roles[role], res)
		row := AttackRow{Attack: attack, Mounted: true, Detected: verr != nil}
		if verr != nil {
			row.Detail = verr.Error()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintAttacks renders E8.
func PrintAttacks(w io.Writer, rows []AttackRow) {
	lines := make([]string, 0, len(rows))
	for _, r := range rows {
		status := "NOT DETECTED — FAILURE"
		if !r.Mounted {
			status = "could not be mounted: " + r.Detail
		} else if r.Detected {
			status = "detected: " + truncate(r.Detail, 80)
		}
		lines = append(lines, fmt.Sprintf("%-18s %s", r.Attack, status))
	}
	printTable(w, "E8 / Section 3.2 — adversarial publisher attack matrix", lines)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
