// Tamper: the Section 3.2 security analysis, live.
//
// A compromised publisher mounts every attack in the paper's case
// analysis — wrong origin, fake empty result, truncated terminal, gap in
// the chain, spurious record — plus value tampering, value swapping,
// ignored access policy, fake filtering, and signature replay. Each
// attack is built as strongly as the adversary can (re-aggregating real
// signatures, regenerating boundary proofs) and each is rejected by the
// verifier.
//
// Run: go run ./examples/tamper
package main

import (
	"fmt"
	"log"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/owner"
	"vcqr/internal/paper/adversary"
	"vcqr/internal/relation"
	"vcqr/internal/verify"
	"vcqr/internal/workload"
)

func main() {
	h := hashx.New()
	own, err := owner.New(h, 0)
	if err != nil {
		log.Fatal(err)
	}
	rel, err := workload.Employees(workload.EmployeeConfig{
		N: 50, L: 0, U: 1 << 20, PhotoSize: 32, HiddenPct: 0, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	sr, err := own.Publish(rel, core.DefaultBase)
	if err != nil {
		log.Fatal(err)
	}
	roles := map[string]accessctl.Role{
		"manager": {Name: "manager"},
		"exec":    {Name: "exec", KeyHi: 1 << 18},
	}
	pub := engine.NewPublisher(h, own.PublicKey(), accessctl.NewPolicy(roles["manager"], roles["exec"]))
	if err := pub.AddRelation(sr, true); err != nil {
		log.Fatal(err)
	}
	v := verify.New(h, own.PublicKey(), sr.Params, sr.Schema)
	adv := adversary.New(pub, h, own.PublicKey())

	fmt.Println("honest baseline:")
	q := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 1 << 19}
	res, err := pub.Execute("manager", q)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := v.VerifyResult(q, roles["manager"], res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d rows verified\n\n", len(rows))

	fmt.Println("attack matrix (every attack must be rejected):")
	detected, mounted := 0, 0
	for _, attack := range adversary.Attacks() {
		aq := q
		role := "manager"
		switch attack {
		case adversary.AttackHideAsFiltered:
			aq.Filters = []engine.Filter{{Col: "Dept", Op: engine.OpLe, Val: relation.IntVal(3)}}
		case adversary.AttackWidenRewrite:
			role = "exec"
		}
		evil, err := adv.Execute(role, aq, attack)
		if err != nil {
			fmt.Printf("  %-18s could not even be mounted (%v)\n", attack, err)
			continue
		}
		mounted++
		if _, err := v.VerifyResult(aq, roles[role], evil); err != nil {
			detected++
			fmt.Printf("  %-18s REJECTED: %v\n", attack, short(err.Error()))
		} else {
			fmt.Printf("  %-18s *** NOT DETECTED — THIS IS A BUG ***\n", attack)
		}
	}
	fmt.Printf("\n%d/%d mounted attacks detected\n", detected, mounted)
	if detected != mounted {
		log.Fatal("some attacks were not detected")
	}
}

func short(s string) string {
	if len(s) > 90 {
		return s[:90] + "..."
	}
	return s
}
