package main

import (
	"math"
	"os"
	"regexp"
	"testing"
)

// The smoke test brings all four workloads up at a tiny size and checks
// the harness against its own contract. The real benchmark never runs
// under `go test ./...`; BENCH_LONG=1 runs one full-size workload.

func smokeRun(t *testing.T, cfg config, workload string) (*report, error) {
	t.Helper()
	old := outDir
	outDir = t.TempDir()
	defer func() { outDir = old }()
	return run(cfg, []string{workload}, 1, -1)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestSmokeEmitsEveryDeclaredMetricOnce(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, w.Name, workloadNames[i])
		}
	}
	for _, w := range workloadNames {
		rep, err := smokeRun(t, smokeConfig(), w)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		wr := rep.Workloads[0]
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d attempted, %d failed", w, wr.Attempted, wr.Failed)
		}
		check := func(kind string, got metrics, want map[string]string, nonZero bool) {
			seen := map[string]int{}
			for _, m := range got {
				seen[m.Name]++
				if !nameRE.MatchString(m.Name) {
					t.Errorf("%s: %s metric name %q is malformed", w, kind, m.Name)
				}
				unit, declared := want[m.Name]
				if !declared {
					t.Errorf("%s: emits %s metric %q that BENCHMARK.json does not declare", w, kind, m.Name)
				} else if unit != m.Unit {
					t.Errorf("%s: %s is in %q, BENCHMARK.json says %q", w, m.Name, m.Unit, unit)
				}
				v := float64(m.Value)
				if math.IsInf(v, 0) {
					t.Errorf("%s: %s is infinite", w, m.Name)
				}
				if nonZero && (math.IsNaN(v) || v <= 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w, m.Name, v)
				}
			}
			for name := range want {
				if seen[name] != 1 {
					t.Errorf("%s: %s metric %q emitted %d times, want exactly once", w, kind, name, seen[name])
				}
			}
		}
		e2e := map[string]string{}
		for _, m := range spec.EndToEnd {
			e2e[m.Name] = m.Unit
		}
		layers := map[string]string{}
		for _, m := range spec.PerLayer {
			layers[m.Name] = m.Unit
		}
		check("end-to-end", wr.EndToEnd, e2e, true)
		check("per-layer", wr.PerLayer, layers, false)

		// The driver's line carries exactly the declared names per mode.
		if got := len(rep.driverLine(0).Metrics); got != len(e2e) {
			t.Errorf("%s: -trace 0 result line has %d metrics, want %d", w, got, len(e2e))
		}
		if got := len(rep.driverLine(1).Metrics); got != len(layers) {
			t.Errorf("%s: -trace 1 result line has %d metrics, want %d", w, got, len(layers))
		}
		for _, m := range wr.PerLayer {
			if m.Name == "client.unattributed_ratio" && !(m.Value <= 0.05) {
				t.Errorf("%s: client.unattributed_ratio = %v, want <= 0.05", w, m.Value)
			}
		}
	}
}

// A transport that flips one byte of every response body the verifying
// client reads must turn the run into a reported failure: no report.
func TestTamperingTransportFailsTheRun(t *testing.T) {
	cfg := smokeConfig()
	cfg.MangleClient = func(off int64, p []byte) {
		const at = 200
		if off <= at && at < off+int64(len(p)) {
			p[at-off] ^= 0x40
		}
	}
	for _, w := range []string{wlSingleScan, wlClusterHot} {
		rep, err := smokeRun(t, cfg, w)
		if err == nil {
			t.Fatalf("%s: run over a byte-flipping transport reported success", w)
		}
		if rep != nil {
			t.Fatalf("%s: failed run still produced a report", w)
		}
		t.Logf("%s: refused as expected: %v", w, err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchmarkSpec{EndToEnd: []specMetric{{"query_p50_ms", "ms", "lower", 0.10}}}
	set := func(vals ...float64) runSet {
		return runSet{"w": {"query_p50_ms": vals}}
	}
	if code := compareSets(spec, set(10, 10.1, 9.9), set(10.2, 10.3, 10.1)); code != 0 {
		t.Errorf("a 2%% slowdown inside a 10%% bound exited %d", code)
	}
	if code := compareSets(spec, set(10, 10.1, 9.9), set(12, 12.1, 11.9)); code != 1 {
		t.Errorf("a 20%% slowdown outside a 10%% bound exited %d", code)
	}
	// Spread wider than the bound: unresolved, not a verdict either way.
	if code := compareSets(spec, set(8, 10, 13), set(12, 12.1, 11.9)); code != 0 {
		t.Errorf("an unresolved comparison exited %d", code)
	}
}

func TestLongRun(t *testing.T) {
	if os.Getenv("BENCH_LONG") == "" {
		t.Skip("set BENCH_LONG=1 to run one full-size workload")
	}
	rep, err := smokeRun(t, fullConfig(), wlClusterScan)
	if err != nil {
		t.Fatal(err)
	}
	rep.print(os.Stdout)
}
