package cluster_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"vcqr/internal/engine"
	"vcqr/internal/wire"
)

// TestNodeFeedDrainAllocBudget holds the coordinator's /stream drain — a
// node feed recycling its frame reader, the merge, the frame encoder —
// and the node's sub-stream behind it to a per-chunk allocation budget.
// The cost per entries chunk is the difference between a long and a
// short stream, so what every request pays once (HTTP, planning, the
// boundary proofs) cancels out. What is left is about 2.6, about one of
// them net/http's chunked writer boxing a flushed frame's length; it
// read 108 before the node feeds recycled their frames, and a per-row
// cost of any kind would add at least 16.
func TestNodeFeedDrainAllocBudget(t *testing.T) {
	f := newCluster(t, 1024, 1, 1, nil)
	ts := httptest.NewServer(f.coord.Handler())
	defer ts.Close()
	const chunkRows = 16
	keys := f.owner.Recs
	drain := func(rows int) uint64 {
		var req bytes.Buffer
		q := engine.Query{Relation: f.spec.Relation, KeyLo: keys[1].Key(), KeyHi: keys[rows].Key()}
		if err := wire.WriteStreamRequest(&req, &wire.StreamRequest{Role: "all", Query: q, ChunkRows: chunkRows}); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.Post(ts.URL+"/stream", "application/octet-stream", &req)
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		if err != nil || resp.StatusCode != http.StatusOK || n == 0 {
			t.Fatalf("stream: %s, %d bytes, %v", resp.Status, n, err)
		}
		return after.Mallocs - before.Mallocs
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	long, short := 1024, 128
	drain(long) // warm the pools and connections
	const runs = 5
	var dl, ds uint64
	for i := 0; i < runs; i++ {
		dl += drain(long)
		ds += drain(short)
	}
	perChunk := (float64(dl) - float64(ds)) / runs / float64((long-short)/chunkRows)
	const budget = 4
	t.Logf("node feed drain: %.2f allocs per entries chunk (budget %d)", perChunk, budget)
	if perChunk > budget && !raceEnabled {
		t.Fatalf("coordinator drain allocates %.2f per entries chunk, budget %d", perChunk, budget)
	}
}
