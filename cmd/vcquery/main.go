// Command vcquery is the verifying client for vcserve: it sends a range
// query to an untrusted publisher, checks the verification object against
// the owner's public parameters, and prints the verified rows — or the
// reason the result was rejected.
//
// Usage:
//
//	vcquery -url http://localhost:8080 -params params.vcqr \
//	        -role manager -lo 1000 -hi 500000 -cols Name,Dept
//
// Batch mode queries several ranges, one after another, and verifies
// each result independently:
//
//	vcquery -url http://localhost:8080 -params params.vcqr \
//	        -role manager -ranges 1000:2000,500000:900000,1:0
//
// Stream mode pulls the result as verified chunk frames, printing rows
// as the incremental verifier releases them and reporting the time to
// the first row — constant client memory no matter the result size:
//
//	vcquery -url http://localhost:8080 -params params.vcqr \
//	        -role manager -lo 1000 -hi 500000 -stream
//
// Adding -timing to a stream asks the server for its advisory per-stage
// latency trailer (assembly, encode, fan-out sub-streams per node behind
// a coordinator) and prints it alongside the locally measured
// verification cost. The trailer is operational data only — it arrives
// after the footer and is never part of what the verifier accepts.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/sig"
	"vcqr/internal/verify"
	"vcqr/internal/wire"
)

func main() {
	url := flag.String("url", "http://localhost:8080", "publisher base URL")
	paramsPath := flag.String("params", "params.vcqr", "owner parameters file (authenticated channel)")
	roleName := flag.String("role", "manager", "role to query as")
	lo := flag.Uint64("lo", 1, "range lower bound (inclusive)")
	hi := flag.Uint64("hi", 0, "range upper bound (inclusive, 0 = unbounded)")
	cols := flag.String("cols", "", "comma-separated projection (empty = all columns)")
	ranges := flag.String("ranges", "", "batch mode: comma-separated lo:hi pairs, each queried and verified independently")
	stream := flag.Bool("stream", false, "stream mode: verify and print rows chunk by chunk")
	chunkRows := flag.Int("chunk", 0, "stream mode: rows per chunk (0 = publisher default); the first chunk holds at most 8 rows, so the first row arrives sooner")
	timing := flag.Bool("timing", false, "stream mode: request the server's advisory timing trailer and print the per-stage latency breakdown (plus client-side verify cost)")
	flag.Parse()

	cp, err := wire.ReadClientParams(*paramsPath)
	if err != nil {
		log.Fatal(err)
	}
	role, ok := cp.Roles[*roleName]
	if !ok {
		log.Fatalf("unknown role %q", *roleName)
	}

	var project []string
	if *cols != "" {
		project = strings.Split(*cols, ",")
	}
	client := &wire.Client{BaseURL: *url, Timing: *timing}
	h := hashx.New()
	pub := &sig.PublicKey{N: cp.N, E: cp.E}
	v := verify.New(h, pub, cp.Params, cp.Schema)
	if *timing {
		// Local registry for the verifier-side cost; the trailer carries
		// the server side. Both are advisory — the verdict never depends
		// on either.
		v.Obs = obs.NewRegistry()
	}

	if *ranges != "" {
		runBatch(client, v, cp, role, *roleName, *ranges, project)
		return
	}

	q := engine.Query{Relation: cp.Schema.Name, KeyLo: *lo, KeyHi: *hi, Project: project}
	if *stream {
		runStream(client, v, cp, role, *roleName, q, *chunkRows)
		return
	}
	res, err := client.Query(*roleName, q)
	if err != nil {
		log.Fatalf("query failed: %v", err)
	}
	rows, err := v.VerifyResult(q, role, res)
	if err != nil {
		log.Fatalf("RESULT REJECTED: %v", err)
	}
	printVerified(cp, v, res, rows)
}

// runStream pulls one query as a verified chunk stream, printing rows as
// the incremental verifier releases them. With condensed signatures the
// rows are chain-consistent on release and anchored to the owner's key
// when the footer verifies; any failure mid-stream aborts with the named
// reason. When the parameters carry a partition spec, the shard-aware
// verifier runs its fail-fast hand-off checks on top of the chain.
func runStream(client *wire.Client, v *verify.Verifier, cp wire.ClientParams, role accessctl.Role, roleName string, q engine.Query, chunkRows int) {
	var sv verify.ChunkVerifier = v.NewStreamVerifier(q, role)
	if cp.Partition != nil {
		shardSV, err := v.NewShardStreamVerifier(*cp.Partition, q, role)
		if err != nil {
			log.Fatalf("cannot verify against the partition spec: %v", err)
		}
		sv = shardSV
		fmt.Printf("partitioned publication: %d shards, verifying hand-offs\n", cp.Partition.K())
	}
	start := time.Now()
	var firstRow time.Duration
	printed := 0
	stats, err := client.QueryStreamWith(sv, roleName, q, chunkRows, func(r engine.Row) error {
		if firstRow == 0 {
			firstRow = time.Since(start)
		}
		if printed < 20 {
			fmt.Printf("%8d  ", r.Key)
			for _, d := range r.Values {
				fmt.Printf("%s=%v  ", cp.Schema.Cols[d.Col].Name, d.Val)
			}
			fmt.Println()
		} else if printed == 20 {
			fmt.Println("... (further rows verified but not printed)")
		}
		printed++
		return nil
	})
	if err != nil {
		log.Fatalf("STREAM REJECTED after %d rows: %v", stats.Rows, err)
	}
	total := time.Since(start)
	fmt.Printf("stream VERIFIED: %d rows complete and authentic for %s\n", stats.Rows, cp.Schema.KeyName)
	fmt.Printf("%d chunks, %d bytes on the wire\n", stats.Chunks, stats.Bytes)
	if firstRow > 0 {
		fmt.Printf("time to first verified row: %v (total %v)\n", firstRow, total)
	} else {
		fmt.Printf("empty result verified in %v\n", total)
	}
	printTiming(v, stats)
}

// printTiming renders the -timing breakdown: the server's advisory
// trailer stages (including per-node breakdowns behind a coordinator)
// and the client-side verify cost measured locally.
func printTiming(v *verify.Verifier, stats wire.StreamStats) {
	if len(stats.Timing) > 0 {
		fmt.Printf("trace %s server-side breakdown (advisory, not verified):\n", stats.Trace)
		for _, sd := range stats.Timing {
			stage, labels := obs.SplitName(sd.Stage)
			for _, kv := range labels {
				stage += " " + kv[0] + "=" + kv[1]
			}
			fmt.Printf("  %-44s %s\n", stage, obs.FormatNS(sd.NS))
		}
	}
	if v.Obs == nil {
		return
	}
	snap := v.Obs.Snapshot()[obs.StageVerify]
	if snap.Count() > 0 {
		fmt.Printf("client-side verify: %d chunks, total %s, p95/chunk %s\n",
			snap.Count(), obs.FormatNS(snap.SumNS), obs.FormatNS(int64(snap.Quantile(0.95))))
	}
}

// runBatch parses "lo:hi,lo:hi,...", queries and verifies every range
// independently, and reports per-range outcomes. Exits non-zero if any
// result is rejected.
func runBatch(client *wire.Client, v *verify.Verifier, cp wire.ClientParams, role accessctl.Role, roleName, spec string, project []string) {
	var qs []engine.Query
	for _, part := range strings.Split(spec, ",") {
		loHi := strings.SplitN(part, ":", 2)
		if len(loHi) != 2 {
			log.Fatalf("bad range %q (want lo:hi)", part)
		}
		lo, err := strconv.ParseUint(strings.TrimSpace(loHi[0]), 10, 64)
		if err != nil {
			log.Fatalf("bad range %q: %v", part, err)
		}
		hi, err := strconv.ParseUint(strings.TrimSpace(loHi[1]), 10, 64)
		if err != nil {
			log.Fatalf("bad range %q: %v", part, err)
		}
		qs = append(qs, engine.Query{Relation: cp.Schema.Name, KeyLo: lo, KeyHi: hi, Project: project})
	}
	rejected := 0
	for i, q := range qs {
		res, err := client.Query(roleName, q)
		if err != nil {
			fmt.Printf("[%d] [%d, %d] publisher error: %v\n", i, q.KeyLo, q.KeyHi, err)
			rejected++
			continue
		}
		rows, err := v.VerifyResult(q, role, res)
		if err != nil {
			fmt.Printf("[%d] [%d, %d] REJECTED: %v\n", i, q.KeyLo, q.KeyHi, err)
			rejected++
			continue
		}
		acc := res.VO.Account(v.H.Size(), v.Pub.SigBytes())
		fmt.Printf("[%d] [%d, %d] VERIFIED: %d rows, %d bytes auth traffic\n",
			i, res.Effective.KeyLo, res.Effective.KeyHi, len(rows), acc.Bytes())
	}
	if rejected > 0 {
		log.Fatalf("%d of %d batch results rejected", rejected, len(qs))
	}
}

// printVerified reports one verified single-query result.
func printVerified(cp wire.ClientParams, v *verify.Verifier, res *engine.Result, rows []engine.Row) {
	acc := res.VO.Account(v.H.Size(), v.Pub.SigBytes())
	fmt.Printf("result VERIFIED: %d rows complete and authentic for %s in [%d, %d]\n",
		len(rows), cp.Schema.KeyName, res.Effective.KeyLo, res.Effective.KeyHi)
	fmt.Printf("VO: %d digests + %d signature(s) = %d bytes authentication traffic\n",
		acc.Digests, acc.Signatures, acc.Bytes())
	for i, r := range rows {
		if i >= 20 {
			fmt.Printf("... and %d more rows\n", len(rows)-20)
			break
		}
		fmt.Printf("%8d  ", r.Key)
		for _, d := range r.Values {
			fmt.Printf("%s=%v  ", cp.Schema.Cols[d.Col].Name, d.Val)
		}
		fmt.Println()
	}
}
