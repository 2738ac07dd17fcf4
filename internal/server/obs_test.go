package server_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/server"
	"vcqr/internal/verify"
	"vcqr/internal/wire"
)

func roleAll() accessctl.Role { return accessctl.Role{Name: "all"} }

// newServerWith builds a server over a pre-built relation with an
// explicit slow-log threshold.
func newServerWith(t testing.TB, h *hashx.Hasher, sr *core.SignedRelation, slow time.Duration) *server.Server {
	t.Helper()
	s := server.New(server.Config{
		Hasher:        h,
		Pub:           signKey(t).Public(),
		Policy:        accessctl.NewPolicy(accessctl.Role{Name: "all"}),
		SlowThreshold: slow,
	})
	t.Cleanup(s.Close)
	if err := s.AddRelation(sr, true); err != nil {
		t.Fatal(err)
	}
	return s
}

func verifierFor(t testing.TB, h *hashx.Hasher, sr *core.SignedRelation) *verify.Verifier {
	return verify.New(h, signKey(t).Public(), sr.Params, sr.Schema)
}

// scrapeMetrics GETs a Prometheus text endpoint and parses it into
// name{labels} -> value, keeping the raw label block as part of the key.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
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

// TestMetricsScrape runs over a plain relation and an AddPartition one:
// both are standalone servers (role="server"), and neither observes
// fanout_merge, which is the coordinator's stage.
func TestMetricsScrape(t *testing.T) {
	plain, _, v, _ := newServer(t, 64)
	part := newPartServer(t, 64, 4)
	for _, tc := range []struct {
		name string
		s    *server.Server
		v    *verify.Verifier
	}{
		{"plain", plain, v},
		{"partitioned", part.s, part.v},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.s.Handler())
			defer ts.Close()
			client := &wire.Client{BaseURL: ts.URL}

			q := engine.Query{Relation: "Uniform", KeyLo: 1, KeyHi: 1 << 19}
			if _, err := client.QueryStream(tc.v, roleAll(), "all", q, 16, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := client.Query("all", q); err != nil {
				t.Fatal(err)
			}

			m := scrapeMetrics(t, ts.URL+"/metrics")
			// A collected Client.Query is a stream like any other.
			if got := m[`vcqr_streams_total{role="server"}`]; got != 2 {
				t.Fatalf("vcqr_streams_total = %v, want 2", got)
			}
			if got := m[`vcqr_queries_total{role="server"}`]; got != 2 {
				t.Fatalf("vcqr_queries_total = %v, want 2", got)
			}
			if m[`vcqr_stream_chunks_total{role="server"}`] < 3 {
				t.Fatalf("expected at least header+entries+footer chunk frames, got %v",
					m[`vcqr_stream_chunks_total{role="server"}`])
			}
			// Stage histograms: one observation per stream for stream_total,
			// vo_assemble and wire_encode, at least one chunk observation.
			for _, stage := range []string{
				obs.StageStreamTotal, obs.StageStreamChunk, obs.StageWireEncode,
				obs.StageVOAssemble,
			} {
				key := `vcqr_stage_seconds_count{stage="` + stage + `",role="server"}`
				if m[key] < 1 {
					t.Fatalf("no observations for stage %q (key %s): %v", stage, key, m)
				}
			}
			if got := m[`vcqr_stage_seconds_count{stage="`+obs.StageFanoutMerge+`",role="server"}`]; got != 0 {
				t.Fatalf("fanout_merge observed %v times on a server, want 0", got)
			}
			// The +Inf bucket of every histogram equals its count.
			cnt := m[`vcqr_stage_seconds_count{stage="stream_total",role="server"}`]
			inf := m[`vcqr_stage_seconds_bucket{stage="stream_total",role="server",le="+Inf"}`]
			if cnt != inf {
				t.Fatalf("+Inf bucket %v != count %v", inf, cnt)
			}
		})
	}
}

func TestMetricsJSONExport(t *testing.T) {
	s, _, v, _ := newServer(t, 32)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &wire.Client{BaseURL: ts.URL}

	q := engine.Query{Relation: "Uniform", KeyLo: 1, KeyHi: 1 << 19}
	if _, err := client.QueryStream(v, roleAll(), "all", q, 16, nil); err != nil {
		t.Fatal(err)
	}

	e, err := client.ObsExport()
	if err != nil {
		t.Fatal(err)
	}
	if e.Role != "server" {
		t.Fatalf("role = %q", e.Role)
	}
	bounds := obs.BucketBounds()
	if len(e.BoundsNS) != len(bounds) {
		t.Fatalf("bounds len = %d, want %d", len(e.BoundsNS), len(bounds))
	}
	for i := range bounds {
		if e.BoundsNS[i] != bounds[i] {
			t.Fatalf("bucket geometry diverged at %d: %d != %d", i, e.BoundsNS[i], bounds[i])
		}
	}
	if e.Hists[obs.StageStreamTotal].Count() != 1 {
		t.Fatalf("stream_total count = %d", e.Hists[obs.StageStreamTotal].Count())
	}
	if e.Counters["streams"] != 1 {
		t.Fatalf("streams counter = %d", e.Counters["streams"])
	}
}

func TestTimingTrailer(t *testing.T) {
	s, _, v, _ := newServer(t, 64)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	q := engine.Query{Relation: "Uniform", KeyLo: 1}

	// Without Timing the stream carries no trailer — the byte-identity
	// surface is untouched by default.
	plain := &wire.Client{BaseURL: ts.URL}
	stats, err := plain.QueryStream(v, roleAll(), "all", q, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trace != "" || stats.Timing != nil {
		t.Fatalf("unrequested trailer leaked: %+v", stats)
	}
	if stats.Rows != 64 {
		t.Fatalf("rows = %d", stats.Rows)
	}

	// With Timing the trailer arrives after the footer, the stream still
	// verifies, and the client-supplied trace ID is echoed.
	timed := &wire.Client{BaseURL: ts.URL, Timing: true, Trace: "cafef00dcafef00d"}
	stats, err = timed.QueryStream(v, roleAll(), "all", q, 16, nil)
	if err != nil {
		t.Fatalf("timed stream rejected: %v", err)
	}
	if stats.Rows != 64 {
		t.Fatalf("rows = %d", stats.Rows)
	}
	if stats.Trace != "cafef00dcafef00d" {
		t.Fatalf("trace = %q, want echo of client trace", stats.Trace)
	}
	got := map[string]int64{}
	for _, sd := range stats.Timing {
		got[sd.Stage] = sd.NS
	}
	for _, stage := range []string{obs.StageStreamTotal, obs.StageVOAssemble, obs.StageWireEncode} {
		if _, ok := got[stage]; !ok {
			t.Fatalf("trailer missing stage %q: %+v", stage, stats.Timing)
		}
	}
	if got[obs.StageStreamTotal] <= 0 {
		t.Fatalf("stream_total = %d", got[obs.StageStreamTotal])
	}

	// A server-minted trace (no client trace) is 16 hex digits.
	minted := &wire.Client{BaseURL: ts.URL, Timing: true}
	stats, err = minted.QueryStream(v, roleAll(), "all", q, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Trace) != 16 {
		t.Fatalf("minted trace = %q", stats.Trace)
	}
}

func TestSlowLogEndpoint(t *testing.T) {
	h, sr := build(t, 32)
	s := newServerWith(t, h, sr, time.Nanosecond)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &wire.Client{BaseURL: ts.URL, Timing: true, Trace: "0123456789abcdef"}
	v := verifierFor(t, h, sr)

	q := engine.Query{Relation: "Uniform", KeyLo: 1, KeyHi: 1 << 19}
	if _, err := client.QueryStream(v, roleAll(), "all", q, 16, nil); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ThresholdNS int64
		Entries     []obs.SlowEntry
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ThresholdNS != 1 {
		t.Fatalf("threshold = %d", out.ThresholdNS)
	}
	var found *obs.SlowEntry
	for i := range out.Entries {
		if out.Entries[i].Op == "stream" {
			found = &out.Entries[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("no stream entry in slow log: %+v", out.Entries)
	}
	if found.Trace != "0123456789abcdef" {
		t.Fatalf("slow entry trace = %q", found.Trace)
	}
	if !strings.Contains(found.Detail, "relation=Uniform") {
		t.Fatalf("detail = %q", found.Detail)
	}
	if len(found.Stages) == 0 {
		t.Fatal("slow entry has no stage breakdown")
	}

	// ?threshold= adjusts retention live.
	resp2, err := http.Get(ts.URL + "/debug/slowlog?threshold=250ms")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := s.Obs().Slow.Threshold(); got != 250*time.Millisecond {
		t.Fatalf("live threshold = %v", got)
	}
}

func TestDebugSurfaceMounted(t *testing.T) {
	s, _, _, _ := newServer(t, 8)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/debug/vars", "/debug/pprof/", "/debug/slowlog"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s -> %s", path, resp.Status)
		}
	}
}
