package cluster_test

import (
	"errors"
	"fmt"
	"maps"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"

	"vcqr/internal/cluster"
	"vcqr/internal/engine"
	"vcqr/internal/wire"
)

// countingTransport counts the coordinator's requests per endpoint path.
type countingTransport struct {
	inner http.RoundTripper
	mu    sync.Mutex
	paths map[string]int
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.paths[req.URL.Path]++
	c.mu.Unlock()
	return c.inner.RoundTrip(req)
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
// fan-out join.
func noFanOutLeft(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "cluster.fanOut") {
		t.Fatalf("a fan-out goroutine outlived its delta:\n%s", stacks)
	}
}

// A delta probes each untouched neighbour replica's edges once, all at
// once, and the seam checks read those probes: an interior delta on
// shard 1 costs exactly R probes for each of its two neighbours, and a
// seam-crossing delta (ops on shards 0 and 1, every replica of both
// staged) exactly R for shard 2 — no probe from the seam phase.
func TestDeltaProbesEachNeighbourReplicaOnce(t *testing.T) {
	f, _, ct := probeCluster(t)
	if _, err := f.coord.ApplyDelta(f.interiorDelta("probe-interior")); err != nil {
		t.Fatal(err)
	}
	if got := ct.take(wire.ShardEdgesRPC.Path); got != 2*2 {
		t.Fatalf("interior delta sent %d edge probes, want 4 (R = 2 for each of 2 neighbours)", got)
	}
	noFanOutLeft(t)

	sl0 := f.set.Slices[0]
	edge := sl0.Recs[len(sl0.Recs)-2]
	if _, err := f.coord.ApplyDelta(f.mintDelta(f.globalIndexOf(edge.Key(), edge.Tuple.RowID), []byte("probe-seam"))); err != nil {
		t.Fatal(err)
	}
	if got := ct.take(wire.ShardEdgesRPC.Path); got != 2 {
		t.Fatalf("seam delta sent %d edge probes, want 2 (R = 2 for shard 2)", got)
	}
	noFanOutLeft(t)
}

// A probe that dies refuses the delta by shard and node, aborts every
// staged transaction, moves no published slice, and leaves no goroutine
// behind; the same delta then commits.
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

	// The interior delta on shard 1 probes shards 0 and 2; pick a node
	// that hosts exactly one of them, so the failing probe is known.
	sets := f.coord.ReplicaSets()
	hosts := map[string][]int{}
	for _, nb := range []int{0, 2} {
		for _, url := range sets[nb] {
			hosts[url] = append(hosts[url], nb)
		}
	}
	victim, shard := "", -1
	for url, nbs := range hosts {
		if len(nbs) == 1 {
			victim, shard = url, nbs[0]
		}
	}
	if victim == "" {
		t.Fatalf("no node hosts exactly one neighbour of shard 1: %v", sets)
	}
	prepared := len(sets[1])
	ct.take("")

	d := f.interiorDelta("after-probe-failure")
	inj.Set(cluster.Fault{Node: victim, Path: wire.ShardEdgesRPC.Path, Mode: cluster.Kill, Times: 1})
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
