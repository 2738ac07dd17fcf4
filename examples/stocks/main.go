// Stocks: the introduction's motivating scenario — a financial
// information provider pushes historical prices to proxy servers near
// users. Demonstrates:
//
//   - range selection over a time window with projection (the Volume
//     column stays at the publisher, shipped only as digests);
//   - a PK-FK join between trades (signed on their symbol-id foreign
//     key) and a company directory (signed on its primary key);
//   - client-side verified aggregates (COUNT/AVG) over a verified window.
//
// Run: go run ./examples/stocks
package main

import (
	"fmt"
	"log"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/owner"
	"vcqr/internal/paper/relalg"
	"vcqr/internal/relation"
	"vcqr/internal/verify"
)

func main() {
	h := hashx.New()
	own, err := owner.New(h, 0)
	if err != nil {
		log.Fatal(err)
	}

	// --- Price history: 500 ticks over a day of timestamps -----------
	prices, err := stocks(500, 0, 86400, []string{"ACME", "GLOBEX"}, 42)
	if err != nil {
		log.Fatal(err)
	}
	pricesSR, err := own.Publish(prices, core.DefaultBase)
	if err != nil {
		log.Fatal(err)
	}

	// --- Trades by company id (FK) and the company directory (PK) ----
	trades, err := relation.New(relation.Schema{
		Name: "Trades", KeyName: "CompanyID",
		Cols: []relation.Column{{Name: "Qty", Type: relation.TypeInt}},
	}, 0, 1000)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range []struct {
		company uint64
		qty     int64
	}{{10, 100}, {10, 250}, {20, 75}, {30, 300}} {
		if _, err := trades.Insert(relation.Tuple{Key: t.company, Attrs: []relation.Value{
			relation.IntVal(t.qty),
		}}); err != nil {
			log.Fatal(err)
		}
	}
	companies, err := relation.New(relation.Schema{
		Name: "Companies", KeyName: "CompanyID",
		Cols: []relation.Column{{Name: "Symbol", Type: relation.TypeString}},
	}, 0, 1000)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range []struct {
		id  uint64
		sym string
	}{{10, "ACME"}, {20, "GLOBEX"}, {30, "INITECH"}, {40, "UMBRELLA"}} {
		if _, err := companies.Insert(relation.Tuple{Key: c.id, Attrs: []relation.Value{
			relation.StringVal(c.sym),
		}}); err != nil {
			log.Fatal(err)
		}
	}
	tradesSR, err := own.Publish(trades, core.DefaultBase)
	if err != nil {
		log.Fatal(err)
	}
	companiesSR, err := own.Publish(companies, core.DefaultBase)
	if err != nil {
		log.Fatal(err)
	}

	role := accessctl.Role{Name: "analyst"}
	pub := engine.NewPublisher(h, own.PublicKey(), accessctl.NewPolicy(role))
	for _, sr := range []*core.SignedRelation{pricesSR, tradesSR, companiesSR} {
		if err := pub.AddRelation(sr, true); err != nil {
			log.Fatal(err)
		}
	}

	// --- Verified window query with projection -----------------------
	q := engine.Query{
		Relation: "Prices", KeyLo: 30000, KeyHi: 40000,
		Project: []string{"Symbol", "Price"}, // Volume stays behind
	}
	res, err := pub.Execute("analyst", q)
	if err != nil {
		log.Fatal(err)
	}
	v := verify.New(h, own.PublicKey(), pricesSR.Params, pricesSR.Schema)
	rows, err := v.VerifyResult(q, role, res)
	if err != nil {
		log.Fatalf("price window rejected: %v", err)
	}
	lo, hi, _ := relalg.MinMaxKeys(rows)
	fmt.Printf("verified %d price ticks in window [30000, 40000] (first %d, last %d); Volume never left the publisher\n",
		relalg.Count(rows), lo, hi)

	// --- PK-FK join: trades with their company symbols ---------------
	jq := relalg.JoinQuery{R: "Trades", S: "Companies", KeyLo: 1, KeyHi: 25}
	jres, err := relalg.ExecuteJoin(pub, "analyst", jq)
	if err != nil {
		log.Fatal(err)
	}
	joined, err := relalg.VerifyJoin(
		verify.New(h, own.PublicKey(), tradesSR.Params, tradesSR.Schema),
		verify.New(h, own.PublicKey(), companiesSR.Params, companiesSR.Schema),
		jq, role, jres)
	if err != nil {
		log.Fatalf("join rejected: %v", err)
	}
	fmt.Printf("verified PK-FK join (company id <= 25): %d rows\n", len(joined))
	for _, jr := range joined {
		fmt.Printf("  company=%d qty=%v symbol=%v\n",
			jr.RRow.Key, jr.RRow.Values[0].Val, jr.SRow.Values[0].Val)
	}

	// --- Verified aggregate: trades per company band ------------------
	aq := engine.Query{Relation: "Trades", KeyLo: 1, KeyHi: 25}
	ares, err := pub.Execute("analyst", aq)
	if err != nil {
		log.Fatal(err)
	}
	tv := verify.New(h, own.PublicKey(), tradesSR.Params, tradesSR.Schema)
	arows, err := tv.VerifyResult(aq, role, ares)
	if err != nil {
		log.Fatal(err)
	}
	sum, err := relalg.SumInt(tradesSR.Schema, arows, "Qty")
	if err != nil {
		log.Fatal(err)
	}
	avg, err := relalg.AvgInt(tradesSR.Schema, arows, "Qty")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified aggregate over companies [1,25]: COUNT=%d SUM(Qty)=%d AVG(Qty)=%.1f\n",
		relalg.Count(arows), sum, avg)
}
