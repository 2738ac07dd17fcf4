package main

import "time"

// Workload names are normative: BENCHMARK.json, the README's prediction
// table and every later perf PR refer to them.
const (
	wlSingleScan  = "single-scan"
	wlClusterScan = "cluster-scan"
	wlClusterHot  = "cluster-hot"
	wlMixedWrite  = "cluster-mixed-write"
)

var workloadNames = []string{wlSingleScan, wlClusterScan, wlClusterHot, wlMixedWrite}

// config fixes the data, the topology and the load. There are exactly two
// instances — full (the benchmark) and smoke (bench_test.go) — and no
// flag changes any field but the phase lengths: a number is only
// comparable with another taken at the same config, and the env block of
// every output repeats all of it.
type config struct {
	// Data.
	N         int // rows
	Payload   int // bytes per row payload
	Base      uint64
	KeyBits   int
	ChunkRows int

	// Cluster topology.
	K, Nodes, R   int
	SnapshotEvery int // node WAL appends per compacting snapshot

	// Load.
	Clients     int // closed-loop readers (cluster-mixed-write: 1 reader + 1 writer)
	ScanRows    int // single-scan / cluster-scan range length
	HotRows     int
	HotRanges   int
	MixedRows   int
	MixedRanges int
	ZipfS       float64
	SeqLen      int     // pre-generated queries per workload (cycled if a run outlasts them)
	WriteRate   float64 // cluster-mixed-write deltas per second
	ProbeDeltas int     // read-only workloads: deltas replayed after the read phase
	HotBudget   int64   // cluster-hot peer budget: the working set fits
	MixedBudget int64   // cluster-mixed-write peer budget: a quarter of the read working set

	// Phases.
	Setups      int           // full set-ups per run; setup_s is their median
	WarmQueries int           // per set-up: queries that fill caches and pass the admission gate (scans use a quarter)
	Measure     time.Duration // the measured phase; -seconds overrides it
	Window      time.Duration // the measured phase runs as Measure/Window windows
	Calib       time.Duration // one host-speed calibration (calib.go); one runs between any two timed intervals

	// Traced pass: fixed counts so the counters repeat exactly.
	TraceQueries    int
	TraceQueriesHot int
	TraceDeltas     int
	LayerReps       int // repetitions of each direct layer microbenchmark

	// MangleClient, when set, corrupts the bytes the verifying clients
	// receive. Only bench_test.go sets it: a run over a tampering
	// transport must report a failure, never numbers.
	MangleClient func(off int64, p []byte)
}

// windows is how many windows the measured phase has.
func (c config) windows() int { return max(1, int(c.Measure/c.Window)) }

// fullConfig is the benchmark. N, the scan length and the measured phase
// are smaller than ISSUE.md's first draft (16 384 rows, 2 048-row scans,
// 25 s) because the driver's contract runs one workload per invocation,
// 92 invocations inside 3 420 s, with set-up repeated inside each: see
// bench/README.md "Run-time budget".
func fullConfig() config {
	return config{
		N: 4096, Payload: 64, Base: 2, KeyBits: 32, ChunkRows: 64,
		K: 4, Nodes: 3, R: 2, SnapshotEvery: 16,
		Clients: 2, ScanRows: 512,
		HotRows: 32, HotRanges: 64,
		MixedRows: 256, MixedRanges: 512, ZipfS: 1.1,
		SeqLen: 1 << 14, WriteRate: 5, ProbeDeltas: 48,
		HotBudget: 64 << 20, MixedBudget: 12 << 20,
		Setups: 3, WarmQueries: 64,
		Measure: 12 * time.Second, Window: time.Second, Calib: 100 * time.Millisecond,
		TraceQueries: 128, TraceQueriesHot: 512, TraceDeltas: 64,
		LayerReps: 5,
	}
}

// smokeConfig brings every workload up, measures it for half a second
// and traces a handful of operations: bench_test.go's size.
func smokeConfig() config {
	return config{
		N: 256, Payload: 16, Base: 2, KeyBits: 32, ChunkRows: 16,
		K: 4, Nodes: 3, R: 2, SnapshotEvery: 4,
		Clients: 2, ScanRows: 64,
		HotRows: 8, HotRanges: 8,
		MixedRows: 16, MixedRanges: 16, ZipfS: 1.1,
		SeqLen: 256, WriteRate: 20, ProbeDeltas: 4,
		HotBudget: 8 << 20, MixedBudget: 64 << 10,
		Setups: 1, WarmQueries: 16,
		Measure: 500 * time.Millisecond, Window: 250 * time.Millisecond, Calib: 10 * time.Millisecond,
		TraceQueries: 6, TraceQueriesHot: 12, TraceDeltas: 4,
		LayerReps: 1,
	}
}
