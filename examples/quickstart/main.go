// Quickstart: the Section 3.1 running example, end to end.
//
// The owner signs the sorted list (2000, 3500, 8010, 12100, 25000) over
// the domain (0, 100000). A user asks for entries >= 10000; the untrusted
// publisher returns (12100, 25000) with a verification object proving the
// result is complete — without revealing that the record just below the
// range has key 8010.
//
// Run: go run ./examples/quickstart
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
)

func main() {
	h := hashx.New()

	// --- Owner: build and sign the list -----------------------------
	schema := relation.Schema{Name: "List", KeyName: "Value",
		Cols: []relation.Column{{Name: "Note", Type: relation.TypeString}}}
	rel, err := relation.New(schema, 0, 100000)
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range []uint64{2000, 3500, 8010, 12100, 25000} {
		if _, err := rel.Insert(relation.Tuple{Key: v, Attrs: []relation.Value{
			relation.StringVal(fmt.Sprintf("entry-%d", v)),
		}}); err != nil {
			log.Fatal(err)
		}
	}
	own, err := owner.New(h, 0)
	if err != nil {
		log.Fatal(err)
	}
	sr, err := own.Publish(rel, core.DefaultBase)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("owner signed %d entries (+2 delimiters) over domain (0, 100000)\n", sr.Len())

	// --- Publisher: execute the greater-than query ------------------
	role := accessctl.Role{Name: "user"}
	pub := engine.NewPublisher(h, own.PublicKey(), accessctl.NewPolicy(role))
	if err := pub.AddRelation(sr, true); err != nil {
		log.Fatal(err)
	}
	q := engine.Query{Relation: "List", KeyLo: 10000} // Value >= 10000
	res, err := pub.Execute("user", q)
	if err != nil {
		log.Fatal(err)
	}
	acc := res.VO.Account(h.Size(), own.PublicKey().SigBytes())
	fmt.Printf("publisher returned %d rows with a %d-byte VO (%d digests, %d signature)\n",
		len(res.Rows()), acc.Bytes(), acc.Digests, acc.Signatures)

	// --- User: verify completeness and authenticity -----------------
	v := verify.New(h, own.PublicKey(), sr.Params, schema)
	rows, err := v.VerifyResult(q, role, res)
	if err != nil {
		log.Fatalf("verification failed: %v", err)
	}
	fmt.Println("VERIFIED — the result is complete and authentic:")
	for _, r := range rows {
		fmt.Printf("  %d %s\n", r.Key, r.Values[0].Val)
	}

	// --- And the point: a truncated result is rejected ---------------
	adv := adversary.New(pub, h, own.PublicKey())
	evil, err := adv.Execute("user", q, adversary.AttackOmitFirst)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := v.VerifyResult(q, role, evil); err != nil {
		fmt.Printf("cheating publisher omitting 12100 was caught: %v\n", err)
	} else {
		log.Fatal("BUG: omission not detected")
	}
}
