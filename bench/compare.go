package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs: which
// end-to-end metrics are gated, which way is better, and by how much of
// the baseline's median each may worsen.
type benchmarkSpec struct {
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

// specMetric is one declared metric; Bound is set on end-to-end ones.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// runSet is several reports of one side; a side given as one file is a
// set of one. Values are pooled per workload and metric.
type runSet map[string]map[string][]float64

func loadSet(paths []string) (runSet, error) {
	set := runSet{}
	for _, p := range paths {
		rep, err := readReport(p)
		if err != nil {
			return nil, err
		}
		for _, wr := range rep.Workloads {
			if set[wr.Workload] == nil {
				set[wr.Workload] = map[string][]float64{}
			}
			for _, m := range wr.EndToEnd {
				if v := float64(m.Value); !math.IsNaN(v) {
					set[wr.Workload][m.Name] = append(set[wr.Workload][m.Name], v)
				}
			}
			// The window rates are the spread estimate a single report
			// carries for its throughput.
			set[wr.Workload]["window_qps"] = append(set[wr.Workload]["window_qps"], wr.WindowQPS...)
		}
	}
	return set, nil
}

// spread is the interquartile range over the median: the run-to-run (or,
// for a lone report's throughput, window-to-window) noise a difference
// has to clear before it means anything.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return ratio(quantile(xs, 0.75)-quantile(xs, 0.25), math.Abs(median(xs)))
}

// runCompare implements `bench -compare A.json B.json`: A is the
// baseline, B the candidate; either may be a comma-free list given as
// several files split by a literal "--" (A1 A2 -- B1 B2). It prints one
// row per workload and gated metric and returns the process exit code:
// 0 when every metric is within its bound or unresolved, 1 when any is
// outside, 2 on usage or read errors.
func runCompare(args []string) int {
	var a, b []string
	split := -1
	for i, s := range args {
		if s == "--" {
			split = i
		}
	}
	switch {
	case split >= 0:
		a, b = args[:split], args[split+1:]
	case len(args) == 2:
		a, b = args[:1], args[1:]
	}
	if len(a) == 0 || len(b) == 0 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json | bench -compare A1.json A2.json ... -- B1.json B2.json ...")
		return 2
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v (run from the repository root)\n", err)
		return 2
	}
	sa, err := loadSet(a)
	if err == nil {
		var sb runSet
		if sb, err = loadSet(b); err == nil {
			return compareSets(spec, sa, sb)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

func compareSets(spec *benchmarkSpec, a, b runSet) int {
	var workloads []string
	for w := range a {
		if b[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	code := 0
	fmt.Printf("%-20s %-22s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "baseline", "candidate", "worse%", "bound%", "spread%", "verdict")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := a[w][m.Name], b[w][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			// worse > 0 means the candidate is worse, whichever way is better.
			worse := ratio(mb-ma, math.Abs(ma))
			if m.Better == "higher" {
				worse = -worse
			}
			sp := math.Max(spread(xa), spread(xb))
			if m.Name == "verified_qps" && len(xa) == 1 && len(xb) == 1 {
				sp = math.Max(spread(a[w]["window_qps"]), spread(b[w]["window_qps"]))
			}
			verdict := "within bound"
			switch {
			case sp > m.Bound:
				// The noise is wider than the bound: the runs cannot
				// tell a regression of that size from nothing.
				verdict = "UNRESOLVED (spread exceeds bound)"
			case worse > m.Bound:
				verdict = "REGRESSION"
				code = 1
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-20s %-22s %12.4f %12.4f %+8.2f %7.2f %7.2f  %s\n",
				w, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*sp, verdict)
		}
	}
	return code
}
