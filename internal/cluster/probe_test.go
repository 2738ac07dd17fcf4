package cluster_test

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/cluster"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/server"
	"vcqr/internal/wire"
)

// countingTransport counts the coordinator's requests per endpoint path,
// and per node and path.
type countingTransport struct {
	inner http.RoundTripper
	mu    sync.Mutex
	paths map[string]int
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.paths[req.URL.Path]++
	c.paths[req.URL.Scheme+"://"+req.URL.Host+req.URL.Path]++
	c.mu.Unlock()
	return c.inner.RoundTrip(req)
}

// takeAt returns the count for path and the part of it sent to the node
// at url, and resets every count.
func (c *countingTransport) takeAt(url, path string) (int, int) {
	c.mu.Lock()
	n, at := c.paths[path], c.paths[url+path]
	c.mu.Unlock()
	c.take("")
	return n, at
}

// take returns the count for path and resets every count.
func (c *countingTransport) take(path string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.paths[path]
	c.paths = map[string]int{}
	return n
}

// probeCluster is K = 4 shards on 3 nodes at R = 2, the coordinator's
// traffic counted and routed through a fault injector.
func probeCluster(t *testing.T) (*fix, *cluster.Injector, *countingTransport) {
	inj := cluster.NewInjector(nil)
	ct := &countingTransport{inner: inj, paths: map[string]int{}}
	f := newClusterCfg(t, 128, 4, 3, &http.Client{Transport: ct}, func(cfg *cluster.Config) { cfg.Replicas = 2 })
	ct.take("")
	return f, inj, ct
}

// noFanOutLeft fails if any goroutine is still inside the coordinator's
// fan-out join. One inside its deferred WaitGroup.Done has finished its
// call and released the join; it is only returning.
func noFanOutLeft(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "cluster.fanOut") && !strings.Contains(g, "sync.(*WaitGroup).Done") {
			t.Fatalf("a fan-out goroutine outlived its delta:\n%s", stacks)
		}
	}
}

// A delta's neighbour edges ride the prepare wave. A neighbour replica on
// a node that prepares comes back in that node's prepare reply; only the
// replicas on nodes that get no ops are probed, once each and while the
// others prepare. So an interior delta on shard 1 (replicas on two of the
// three nodes) costs exactly two probes, both to the third node, which
// hosts both neighbours; and a seam-crossing delta (ops on shards 0 and 1,
// every node preparing) costs none. Nothing is probed after prepare.
func TestDeltaProbesEachNeighbourReplicaOnce(t *testing.T) {
	f, _, ct := probeCluster(t)
	sets := f.coord.ReplicaSets()
	idle := ""
	for _, url := range f.urls {
		if !slices.Contains(sets[1], url) {
			idle = url
		}
	}
	for _, nb := range []int{0, 2} {
		if !slices.Contains(sets[nb], idle) {
			t.Fatalf("fixture: node %s without ops on shard 1 does not host neighbour %d: %v", idle, nb, sets)
		}
	}
	if _, err := f.coord.ApplyDelta(f.interiorDelta("probe-interior")); err != nil {
		t.Fatal(err)
	}
	if got, to := ct.takeAt(idle, wire.ShardEdgesRPC.Path); got != 2 || to != 2 {
		t.Fatalf("interior delta sent %d edge probes, %d of them to %s; want 2, both to the node without ops", got, to, idle)
	}
	noFanOutLeft(t)

	sl0 := f.set.Slices[0]
	edge := sl0.Recs[len(sl0.Recs)-2]
	if _, err := f.coord.ApplyDelta(f.mintDelta(f.globalIndexOf(edge.Key(), edge.Tuple.RowID), []byte("probe-seam"))); err != nil {
		t.Fatal(err)
	}
	if got := ct.take(wire.ShardEdgesRPC.Path); got != 0 {
		t.Fatalf("seam delta sent %d edge probes, want 0 (every node prepares, so shard 2's edges come back in prepare replies)", got)
	}
	noFanOutLeft(t)
}

// A co-hosted stitch creates a seam the coordinator could not name before
// prepare: a delta re-signing shard 2's first owned record, with ops on
// shard 2 only, makes the node co-hosting shard 1 stitch shard 1's right
// context, so seam 0-1 joins the checks. Shard 0's edges are probed on
// every replica after prepare — and only then: the probes are the early
// ones (neighbours 1 and 3 on the node without ops) plus R for shard 0.
// A kill of that late probe refuses the delta by shard 0 and aborts every
// token; the same delta then commits and verifies.
func TestDeltaCoHostedStitchProbesFarSeam(t *testing.T) {
	f, inj, ct := probeCluster(t)
	sets := f.coord.ReplicaSets()
	cohost := false
	for _, url := range sets[2] {
		cohost = cohost || slices.Contains(sets[1], url)
	}
	if !cohost {
		t.Fatalf("fixture: no node hosts both shards 1 and 2: %v", sets)
	}
	early := 0
	for _, nb := range []int{1, 3} {
		for _, url := range sets[nb] {
			if !slices.Contains(sets[2], url) {
				early++
			}
		}
	}
	// victim hosts shard 0 and gets no early probe: its only probe is
	// shard 0's, after prepare.
	victim := ""
	for _, url := range sets[0] {
		if slices.Contains(sets[2], url) {
			victim = url
		}
	}
	if victim == "" {
		t.Fatalf("fixture: no replica of shard 0 prepares shard 2: %v", sets)
	}

	sl2 := f.set.Slices[2]
	second := sl2.Recs[2] // re-signs shard 2's first owned record, and no other shard's
	d := f.mintDelta(f.globalIndexOf(second.Key(), second.Tuple.RowID), []byte("far-seam"))
	if shards, err := delta.Route(f.spec, d); err != nil || len(shards) != 1 || shards[2] == nil {
		t.Fatalf("fixture: delta routes to %v (%v), want shard 2 alone", shards, err)
	}
	inj.Set(cluster.Fault{Node: victim, Path: wire.ShardEdgesRPC.Path, Mode: cluster.Kill, Times: 1})
	_, err := f.coord.ApplyDelta(d)
	want := fmt.Sprintf("edges of shard 0 on %s", victim)
	if !errors.Is(err, cluster.ErrInjectedKill) || !strings.Contains(err.Error(), want) {
		t.Fatalf("delta with a dead far-seam probe: %v, want a refusal naming %q", err, want)
	}
	if got := ct.take(wire.NodeTxRPC.Path); got != len(sets[2]) {
		t.Fatalf("%d transactions finished after the refusal, want an abort for each of the %d prepared nodes", got, len(sets[2]))
	}
	noFanOutLeft(t)

	if _, err := f.coord.ApplyDelta(d); err != nil {
		t.Fatalf("the same delta after the abort: %v", err)
	}
	if got := ct.take(wire.ShardEdgesRPC.Path); got != early+len(sets[0]) {
		t.Fatalf("stitching delta sent %d edge probes, want %d early and %d for shard 0", got, early, len(sets[0]))
	}
	noFanOutLeft(t)
	q := engine.Query{Relation: "Uniform"}
	res, err := collect(f.coord, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.v.VerifyResult(q, f.role, res); err != nil {
		t.Fatalf("post-delta result rejected: %v", err)
	}
}

// An early probe that dies — one sent while the nodes prepare — refuses
// the delta by shard and node, aborts every staged transaction, moves no
// published slice, and leaves no goroutine behind; the same delta then
// commits.
func TestDeltaProbeFailureAbortsAll(t *testing.T) {
	f, inj, ct := probeCluster(t)
	digests := func() map[string]string {
		out := map[string]string{}
		for shard, set := range f.coord.ReplicaSets() {
			for _, url := range set {
				dg, err := (&wire.Client{BaseURL: url}).ShardDigest(wire.ShardRef{Relation: "Uniform", Shard: shard})
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("%d@%s", shard, url)] = string(dg.Digest)
			}
		}
		return out
	}
	before := digests()

	// The interior delta on shard 1 probes shards 0 and 2 early, on the
	// node that gets no ops; kill both probes there, so the refusal names
	// the first, shard 0's.
	sets := f.coord.ReplicaSets()
	victim, shard := "", 0
	for _, url := range f.urls {
		if !slices.Contains(sets[1], url) {
			victim = url
		}
	}
	if !slices.Contains(sets[0], victim) || !slices.Contains(sets[2], victim) {
		t.Fatalf("fixture: node %s without ops on shard 1 does not host both neighbours: %v", victim, sets)
	}
	prepared := len(sets[1])
	ct.take("")

	d := f.interiorDelta("after-probe-failure")
	inj.Set(cluster.Fault{Node: victim, Path: wire.ShardEdgesRPC.Path, Mode: cluster.Kill, Times: 2})
	_, err := f.coord.ApplyDelta(d)
	want := fmt.Sprintf("edges of shard %d on %s", shard, victim)
	if !errors.Is(err, cluster.ErrInjectedKill) || !strings.Contains(err.Error(), want) {
		t.Fatalf("delta with a dead probe: %v, want a refusal naming %q", err, want)
	}
	if got := ct.take(wire.NodeTxRPC.Path); got != prepared {
		t.Fatalf("%d transactions finished after the refusal, want an abort for each of the %d prepared nodes", got, prepared)
	}
	noFanOutLeft(t)
	if after := digests(); !maps.Equal(after, before) {
		t.Fatalf("a refused delta moved a replica:\nbefore %v\nafter  %v", before, after)
	}

	if _, err := f.coord.ApplyDelta(d); err != nil {
		t.Fatalf("the same delta after the abort: %v", err)
	}
	q := engine.Query{Relation: "Uniform"}
	res, err := collect(f.coord, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.v.VerifyResult(q, f.role, res); err != nil {
		t.Fatalf("post-delta result rejected: %v", err)
	}
	found := 0
	for _, row := range res.Rows() {
		for _, attr := range row.Values {
			if string(attr.Val.Bytes) == "after-probe-failure" {
				found++
			}
		}
	}
	if found != 1 {
		t.Fatalf("payload present %d times, want 1", found)
	}
}

// The read path probes the predecessor shard only when the first feed's
// hello announces an empty range that needs it. At K = 4 on 3 nodes, an
// empty range at the start of every shard i > 0 — its predecessor is
// shard i's left context, so the g digest before it lives on shard i−1 —
// costs exactly one /shard/edges call, passes the unmodified
// ShardStreamVerifier and is byte-identical to the single-process
// stream; a non-empty range costs none. A hello that under-reports the
// need is refused by name before any footer, and no probe goes out.
func TestEmptyRangeProbesPredecessorOnce(t *testing.T) {
	f, inj, ct := probeCluster(t)
	coordTS := httptest.NewServer(f.coord.Handler())
	defer coordTS.Close()
	single := server.New(server.Config{Hasher: f.h, Pub: signKey(t).Public(), Policy: accessctl.NewPolicy(f.role)})
	defer single.Close()
	if err := single.AddPartition(f.set, true); err != nil {
		t.Fatal(err)
	}
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()

	for i := 1; i < f.spec.K(); i++ {
		lo, _ := f.spec.Span(i)
		first := f.set.Slices[i].Recs[1].Key()
		if first <= lo {
			t.Fatalf("fixture: shard %d's first key %d is its span's start", i, first)
		}
		for _, c := range []struct {
			q      engine.Query
			rows   int
			probes int
		}{
			{engine.Query{Relation: "Uniform", KeyLo: lo, KeyHi: first - 1}, 0, 1},
			{engine.Query{Relation: "Uniform", KeyLo: lo, KeyHi: first}, 1, 0},
		} {
			ct.take("")
			req := wire.StreamRequest{Role: "all", Query: c.q, ChunkRows: 8}
			if !bytes.Equal(streamBody(t, coordTS.URL, req), streamBody(t, singleTS.URL, req)) {
				t.Fatalf("shard %d, [%d,%d]: cluster stream differs from the single-process stream", i, c.q.KeyLo, c.q.KeyHi)
			}
			if got := ct.take(wire.ShardEdgesRPC.Path); got != c.probes {
				t.Fatalf("shard %d, [%d,%d]: %d edge probes, want %d", i, c.q.KeyLo, c.q.KeyHi, got, c.probes)
			}
			rows, err := f.verifyStream(coordTS.URL, c.q, 8)
			if err != nil || rows != c.rows {
				t.Fatalf("shard %d, [%d,%d]: verified %d rows (%v), want %d", i, c.q.KeyLo, c.q.KeyHi, rows, err, c.rows)
			}
		}
	}

	lo, _ := f.spec.Span(2)
	q := engine.Query{Relation: "Uniform", KeyLo: lo, KeyHi: f.set.Slices[2].Recs[1].Key() - 1}
	inj.Set(cluster.Fault{Path: wire.ShardStreamEP.Path, Stage: cluster.StageBeforeHello, Mode: cluster.Rewrite, Times: 1,
		Edit: func(nf *wire.NodeFrame) { nf.Hello.NeedPrevG = false }})
	ct.take("")
	st, err := f.coord.QueryStream("all", q, 8)
	if err != nil {
		t.Fatal(err)
	}
	for err == nil {
		var c *engine.Chunk
		if c, err = st.Next(); err == nil && len(c.Entries) > 0 {
			t.Fatalf("an under-reporting hello's stream shipped %d entries", len(c.Entries))
		}
	}
	if !errors.Is(err, cluster.ErrPrevGUnannounced) {
		t.Fatalf("under-reporting hello: %v, want ErrPrevGUnannounced", err)
	}
	if got := ct.take(wire.ShardEdgesRPC.Path); got != 0 {
		t.Fatalf("under-reporting hello drew %d edge probes", got)
	}
}
