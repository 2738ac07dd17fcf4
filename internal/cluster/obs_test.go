package cluster_test

import (
	"bufio"
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"vcqr/internal/engine"
	"vcqr/internal/obs"
	"vcqr/internal/wire"
)

// scrape GETs a Prometheus text endpoint into name{labels} -> value.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterTraceAndMetrics is the observability acceptance pin: one
// client-supplied trace ID must span the coordinator and both shard-node
// processes, the per-node stage histograms must surface in the
// coordinator's /metrics (as node-labeled series and in the merged
// cluster aggregate), and the stream carrying all of this must still be
// accepted by the UNMODIFIED shard-aware verifier — with the timing
// trailer strictly appended after the byte-identical stream.
func TestClusterTraceAndMetrics(t *testing.T) {
	f := newCluster(t, 96, 3, 2, nil)
	coordTS := httptest.NewServer(f.coord.Handler())
	defer coordTS.Close()
	defer f.coord.Close()
	const trace = "aaaabbbbccccdddd"

	// Retain everything in the node slow logs so the propagated trace is
	// observable without synthetic delays.
	for _, n := range f.nodes {
		n.Obs().Slow.SetThreshold(time.Nanosecond)
	}
	f.coord.Obs().Slow.SetThreshold(time.Nanosecond)

	// Verified stream with tracing + timing on, via the unmodified
	// shard-aware verifier.
	q := engine.Query{Relation: "Uniform"} // full range: 3 shards, 2 nodes
	sv, err := f.v.NewShardStreamVerifier(f.spec, q, f.role)
	if err != nil {
		t.Fatal(err)
	}
	client := &wire.Client{BaseURL: coordTS.URL, Trace: trace, Timing: true}
	rows := 0
	stats, err := client.QueryStreamWith(sv, "all", q, 8, func(engine.Row) error {
		rows++
		return nil
	})
	if err != nil {
		t.Fatalf("traced stream rejected by unmodified verifier: %v", err)
	}
	if rows != 96 {
		t.Fatalf("verified %d rows, want 96", rows)
	}

	// The trailer echoes the client's trace and carries coordinator
	// stages plus the per-node breakdowns each node self-reported.
	if stats.Trace != trace {
		t.Fatalf("trailer trace = %q, want %q", stats.Trace, trace)
	}
	stages := map[string]bool{}
	for _, sd := range stats.Timing {
		stages[sd.Stage] = true
	}
	for _, want := range []string{obs.StagePinFeeds, obs.StageStreamTotal} {
		if !stages[want] {
			t.Fatalf("trailer missing coordinator stage %q: %+v", want, stats.Timing)
		}
	}
	for _, url := range f.urls {
		if !stages[obs.Labeled(obs.StageSubStream, "node", url)] {
			t.Fatalf("trailer missing node %s sub-stream breakdown: %+v", url, stats.Timing)
		}
	}

	// One trace ID spans the processes: every node retained a substream
	// slow-log entry under the client's trace.
	for i, n := range f.nodes {
		found := false
		for _, e := range n.Obs().Slow.Entries() {
			if e.Op == "substream" && e.Trace == trace {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("node %d slow log has no substream entry for trace %q: %+v",
				i, trace, n.Obs().Slow.Entries())
		}
	}
	// And the coordinator's own slow log closed the same trace.
	found := false
	for _, e := range f.coord.Obs().Slow.Entries() {
		if e.Op == "stream" && e.Trace == trace {
			found = true
		}
	}
	if !found {
		t.Fatalf("coordinator slow log missing trace %q", trace)
	}

	// The coordinator /metrics aggregate shows its own stages, each
	// node's histograms as node-labeled series, and the cluster merge.
	m := scrape(t, coordTS.URL+"/metrics")
	if m[`vcqr_stage_seconds_count{stage="pin_feeds",role="coordinator"}`] < 1 {
		t.Fatalf("coordinator pin_feeds histogram empty: %v", m)
	}
	var nodeSub float64
	for _, url := range f.urls {
		key := `vcqr_node_stage_seconds_count{stage="substream",node="` + url + `"}`
		if m[key] < 1 {
			t.Fatalf("per-node substream histogram missing for %s", url)
		}
		nodeSub += m[key]
	}
	if nodeSub < 3 {
		t.Fatalf("3 shard sub-streams should be visible across the nodes, got %v", nodeSub)
	}
	if got := m[`vcqr_cluster_stage_seconds_count{stage="substream"}`]; got < nodeSub {
		t.Fatalf("cluster aggregate substream count %v < node sum %v", got, nodeSub)
	}
	if m[`vcqr_node_scrape_errors`] != 0 {
		t.Fatalf("node scrapes failed: %v", m[`vcqr_node_scrape_errors`])
	}

	// Timing is strictly additive: the timed stream is the plain stream
	// plus one trailing frame, so the byte-identity surface is untouched.
	plainReq := wire.StreamRequest{Role: "all", Query: q, ChunkRows: 8}
	timedReq := plainReq
	timedReq.Trace, timedReq.Timing = trace, true
	plain := streamBody(t, coordTS.URL, plainReq)
	timed := streamBody(t, coordTS.URL, timedReq)
	if !bytes.HasPrefix(timed, plain) {
		t.Fatal("timed stream does not extend the plain stream byte-for-byte")
	}
	if len(timed) <= len(plain) {
		t.Fatal("timed stream carries no trailer")
	}
}

// TestCoordinatorMetricsJSON pins the coordinator's scrapeable export.
func TestCoordinatorMetricsJSON(t *testing.T) {
	f := newCluster(t, 60, 3, 2, nil)
	coordTS := httptest.NewServer(f.coord.Handler())
	defer coordTS.Close()
	defer f.coord.Close()
	if _, err := collect(f.coord, "all", engine.Query{Relation: "Uniform"}); err != nil {
		t.Fatal(err)
	}
	cl := &wire.Client{BaseURL: coordTS.URL}
	e, err := cl.ObsExport()
	if err != nil {
		t.Fatal(err)
	}
	if e.Role != "coordinator" {
		t.Fatalf("role = %q", e.Role)
	}
	if e.Counters["queries"] != 1 {
		t.Fatalf("queries counter = %d", e.Counters["queries"])
	}
	if e.Hists[obs.StagePinFeeds].Count() < 1 {
		t.Fatal("pin_feeds histogram empty in export")
	}
}
