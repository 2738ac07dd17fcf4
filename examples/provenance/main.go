// Provenance: the paper's future-work DAG extension, applied to a
// software supply chain.
//
// A registry owner signs a package dependency DAG; untrusted mirrors
// answer dependency queries. Completeness makes *negative* answers
// trustworthy: a mirror can prove "package 100 does NOT depend on the
// vulnerable package 666 within 4 hops" — and cannot hide an edge to
// fake that answer.
//
// Run: go run ./examples/provenance
package main

import (
	"fmt"
	"log"

	"vcqr/internal/hashx"
	"vcqr/internal/paper/graphauth"
	"vcqr/internal/sig"
)

func main() {
	h := hashx.New()
	key, err := sig.Generate(0, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Package ids; 666 is the known-vulnerable one.
	//   100 -> {200, 300}; 200 -> {400}; 300 -> {400, 500}; 400 -> {666}
	//   700 -> {500}  (the "clean" application)
	deps := map[uint64][]uint64{
		100: {200, 300},
		200: {400},
		300: {400, 500},
		400: {666},
		700: {500},
	}
	dag, err := graphauth.Build(h, key, deps, 0, 100000, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("owner signed a DAG with %d nodes (one signed adjacency list each)\n", len(dag.Adj))

	mirror, err := graphauth.NewPublisher(h, key.Public(), dag)
	if err != nil {
		log.Fatal(err)
	}
	v := graphauth.NewVerifier(h, key.Public(), dag.Params)

	// Verified direct dependencies.
	cr, err := mirror.Children(100, 1, 99999)
	if err != nil {
		log.Fatal(err)
	}
	succs, _, err := v.VerifyChildren(100, 1, 99999, cr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified direct deps of 100: %v\n", succs)

	// Verified positive: 100 transitively depends on 666.
	res, err := mirror.Reachable(100, 666, 4)
	if err != nil {
		log.Fatal(err)
	}
	found, err := v.VerifyReachable(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified: package 100 depends on vulnerable 666 within 4 hops: %v\n", found)

	// Verified negative: 700 does NOT depend on 666 — and the mirror
	// cannot claim otherwise or hide edges to fabricate the answer.
	res, err = mirror.Reachable(700, 666, 4)
	if err != nil {
		log.Fatal(err)
	}
	found, err = v.VerifyReachable(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified: package 700 depends on vulnerable 666 within 4 hops: %v\n", found)

	// A lying mirror is caught.
	res.Found = true
	if _, err := v.VerifyReachable(res); err != nil {
		fmt.Printf("mirror claiming a fake dependency was caught: %v\n", err)
	} else {
		log.Fatal("BUG: lie not detected")
	}
}
