package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// envBlock is the provenance every output carries: enough to tell
// whether two reports are comparable at all.
type envBlock struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`

	Rows          int     `json:"rows"`
	PayloadBytes  int     `json:"payload_bytes"`
	KeyBits       int     `json:"key_bits"`
	Base          uint64  `json:"base"`
	RSABits       int     `json:"rsa_bits"`
	ChunkRows     int     `json:"chunk_rows"`
	Shards        int     `json:"shards"`
	Nodes         int     `json:"nodes"`
	Replicas      int     `json:"replicas"`
	SnapshotEvery int     `json:"snapshot_every"`
	Clients       int     `json:"clients"`
	Loop          string  `json:"loop"`
	ScanRows      int     `json:"scan_rows"`
	HotRows       int     `json:"hot_rows"`
	HotRanges     int     `json:"hot_ranges"`
	MixedRows     int     `json:"mixed_rows"`
	MixedRanges   int     `json:"mixed_ranges"`
	ZipfS         float64 `json:"zipf_s"`
	WriteRate     float64 `json:"write_rate_per_s"`
	ProbeDeltas   int     `json:"probe_deltas"`
	HotBudget     int64   `json:"hot_cache_budget_bytes"`
	MixedBudget   int64   `json:"mixed_cache_budget_bytes"`
	Setups        int     `json:"setups_per_run"`
	MeasureS      float64 `json:"measure_s"`
	WindowS       float64 `json:"window_s"`
	CalibMS       float64 `json:"calibration_ms"`
	TraceQueries  int     `json:"trace_queries"`
	TraceHot      int     `json:"trace_queries_hot"`
	TraceDeltas   int     `json:"trace_deltas"`
}

func collectEnv(cfg config, seed int64) envBlock {
	return envBlock{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Commit: commit(), Seed: seed,
		Rows: cfg.N, PayloadBytes: cfg.Payload, KeyBits: cfg.KeyBits, Base: cfg.Base, RSABits: 1024,
		ChunkRows: cfg.ChunkRows, Shards: cfg.K, Nodes: cfg.Nodes, Replicas: cfg.R,
		SnapshotEvery: cfg.SnapshotEvery, Clients: cfg.Clients,
		Loop:     "closed: each client sends its next query when the previous one has verified; one HTTP connection each; one load-generator process",
		ScanRows: cfg.ScanRows, HotRows: cfg.HotRows, HotRanges: cfg.HotRanges,
		MixedRows: cfg.MixedRows, MixedRanges: cfg.MixedRanges, ZipfS: cfg.ZipfS,
		WriteRate: cfg.WriteRate, ProbeDeltas: cfg.ProbeDeltas,
		HotBudget: cfg.HotBudget, MixedBudget: cfg.MixedBudget,
		Setups: cfg.Setups, MeasureS: cfg.Measure.Seconds(), WindowS: cfg.Window.Seconds(), CalibMS: ms(cfg.Calib),
		TraceQueries: cfg.TraceQueries, TraceHot: cfg.TraceQueriesHot, TraceDeltas: cfg.TraceDeltas,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// commit names the code under test. The driver's checkout is not a git
// repository, so "unknown" is an expected answer there.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// value is a float that marshals NaN ("not applicable here") as null.
type value float64

func (v value) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(v))
}

func (v *value) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*v = value(math.NaN())
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*v = value(f)
	return nil
}

// workloadReport is one workload's section of the report. Failed is
// always 0: a workload on which anything failed prints no report at all.
type workloadReport struct {
	Workload    string            `json:"workload"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	SeqHashes   map[string]string `json:"sequence_sha256,omitempty"`
	WindowQPS   []float64         `json:"window_qps,omitempty"`
	EndToEnd    metrics           `json:"end_to_end,omitempty"`
	PerLayer    metrics           `json:"per_layer,omitempty"`
	Diagnostics metrics           `json:"diagnostics,omitempty"`
}

func (wr *workloadReport) addE2E(r *e2eResult) {
	wr.Attempted += r.attempted
	wr.SeqHashes = r.hashes
	wr.WindowQPS = r.windows
	wr.EndToEnd = r.metrics
	wr.Diagnostics = append(wr.Diagnostics, r.diag...)
}

func (wr *workloadReport) addTraced(r *tracedResult) {
	wr.Attempted += r.attempted
	if wr.SeqHashes == nil {
		wr.SeqHashes = r.hashes
	}
	wr.PerLayer = r.metrics
	wr.Diagnostics = append(wr.Diagnostics, r.diag...)
}

type report struct {
	Env       envBlock          `json:"env"`
	Workloads []*workloadReport `json:"workloads"`
}

func (rep *report) writeJSON(path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func (rep *report) print(w io.Writer) {
	env, _ := json.MarshalIndent(rep.Env, "", "  ")
	fmt.Fprintf(w, "env %s\n", env)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n== %s: %d attempted, %d failed\n", wr.Workload, wr.Attempted, wr.Failed)
		for _, k := range []string{"queries", "deltas"} {
			fmt.Fprintf(w, "  sha256(%s) = %s\n", k, wr.SeqHashes[k])
		}
		if len(wr.WindowQPS) > 0 {
			fmt.Fprintf(w, "  window verified_qps: %.2f\n", wr.WindowQPS)
		}
		section := func(title string, ms metrics) {
			if len(ms) == 0 {
				return
			}
			fmt.Fprintf(w, "  -- %s\n", title)
			for _, m := range ms {
				if math.IsNaN(float64(m.Value)) {
					fmt.Fprintf(w, "  %-40s %14s %s\n", m.Name, "n/a", m.Unit)
				} else {
					fmt.Fprintf(w, "  %-40s %14.4f %s\n", m.Name, float64(m.Value), m.Unit)
				}
			}
		}
		section("end to end (tracing off)", wr.EndToEnd)
		section("per layer (traced pass)", wr.PerLayer)
		section("diagnostics (not gated)", wr.Diagnostics)
	}
}

// driverResult is the one-line result the driver's contract reads.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine reduces the report to the contract's result object: the
// end-to-end metrics with -trace 0, the per-layer ones with -trace 1
// (both when neither was asked for). The contract runs one workload per
// invocation; with several, the first workload's metrics are reported.
func (rep *report) driverLine(trace int) driverResult {
	res := driverResult{Correct: true, Metrics: map[string]driverValue{}}
	for i, wr := range rep.Workloads {
		res.Attempted += wr.Attempted
		res.Failed += wr.Failed
		if i > 0 {
			continue
		}
		var ms metrics
		if trace != 1 {
			ms = append(ms, wr.EndToEnd...)
		}
		if trace != 0 {
			ms = append(ms, wr.PerLayer...)
		}
		for _, m := range ms {
			v := float64(m.Value)
			if math.IsNaN(v) {
				v = 0 // not applicable on this workload; the schema wants a number
			}
			res.Metrics[m.Name] = driverValue{Value: v, Unit: m.Unit}
		}
	}
	res.Correct = res.Failed == 0
	return res
}
