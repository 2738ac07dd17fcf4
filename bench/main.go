// Command bench is the repository's one verified-query benchmark: it signs
// one relation, brings each topology up in-process over real loopback
// HTTP, drives it closed-loop with verifying clients, checks every answer
// against the owner's master relation, and prints every metric by name
// with its unit. See README.md in this directory for the definitions.
//
//	go run ./bench -seed 1                       all four workloads, e2e + traced pass
//	go run ./bench -seed 1 -workload cluster-hot one workload
//	go run ./bench -compare A.json B.json        regression check against BENCHMARK.json's bounds
//
// The driver's contract (BENCHMARK.json) runs
// `go run ./bench --workload W --seed N --seconds S --trace 0|1` and reads
// the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"vcqr/internal/sig"
)

// outDir holds everything a run leaves behind — data dirs while it runs,
// trace files after — relative to the repository root the command runs
// from. bench/.gitignore covers it.
var outDir = "bench/out"

func main() {
	var (
		seed     = flag.Int64("seed", 1, "workload seed (1 = default, 2 = held-out)")
		workload = flag.String("workload", "", "run one workload (default: all four)")
		seconds  = flag.Int("seconds", 0, "measured-phase length in seconds (default: the config's)")
		trace    = flag.Int("trace", -1, "0 = end-to-end metrics only, 1 = traced pass and per-layer metrics only, default both")
		out      = flag.String("out", "", "also write the full report as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two report files: bench -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	cfg := fullConfig()
	if *seconds > 0 {
		cfg.Measure = time.Duration(*seconds) * time.Second
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *workload, workloadNames)
			os.Exit(2)
		}
		names = []string{*workload}
	}
	rep, err := run(cfg, names, *seed, *trace)
	if err != nil {
		// A workload that missed its correctness gate prints no metrics.
		fmt.Fprintf(os.Stderr, "bench: FAILED: %v\n", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if *out != "" {
		if err := rep.writeJSON(*out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	// The driver's result line: the last line of standard output.
	line, err := json.Marshal(rep.driverLine(*trace))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes the named workloads one after another and assembles the
// report. trace selects the passes as the -trace flag documents.
func run(cfg config, names []string, seed int64, trace int) (*report, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	// One owner key per invocation: key generation is not part of any
	// set-up the benchmark times, and a fresh key keeps signatures (and
	// so wire bytes) honest across invocations.
	key, err := sig.Generate(sig.DefaultBits, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{Env: collectEnv(cfg, seed)}
	for _, name := range names {
		wr := &workloadReport{Workload: name}
		if trace != 1 {
			e2e, err := runE2E(name, cfg, key, seed, outDir)
			if err != nil {
				return nil, err
			}
			wr.addE2E(e2e)
		}
		if trace != 0 {
			tr, err := runTraced(name, cfg, key, seed, outDir)
			if err != nil {
				return nil, err
			}
			wr.addTraced(tr)
			if err := tr.rec.write(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
				return nil, err
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}
