package server_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/cluster"
	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/server"
	"vcqr/internal/store"
	"vcqr/internal/wire"
)

// TestCachedDigestsFollowCommits holds a node's cached slice digests to
// the bytes they name. Three durable nodes host a K = 4, R = 2 relation
// behind a coordinator; edge inserts and deletes at every seam (each a
// cross-node mirror fix), interior updates and a Rebalance follow. After
// every step each hosted slice's cached digest, where one is cached,
// equals SliceDigest of the slice, and its running digests equal the
// slice's; a commit after the first resumes them. Some mirror fixes land
// on a node that prepared the same delta, after its commit plan was
// built: the fix re-plans, or the published digest would be the
// pre-fix slice's. Then every node's store is reopened: replay
// reproduces every logged PostDigest (nothing refused) and lands on the
// slices the nodes last published.
func TestCachedDigestsFollowCommits(t *testing.T) {
	h, sr := build(t, 64)
	set, err := partition.Split(sr, 4)
	if err != nil {
		t.Fatal(err)
	}
	type node struct {
		dir string
		s   *server.Server
		ns  *store.NodeStore
	}
	var nodes []*node
	var urls []string
	// seen records, per node, the node RPC paths the current delta sent it.
	var seenMu sync.Mutex
	seen := make([]map[string]bool, 3)
	for ni := range 3 {
		n := &node{dir: t.TempDir()}
		n.ns = openStore(t, h, n.dir)
		n.s = server.New(server.Config{
			Hasher: h, Pub: signKey(t).Public(), Policy: accessctl.NewPolicy(accessctl.Role{Name: "all"}), Store: n.ns,
		})
		handler := n.s.Handler()
		seen[ni] = map[string]bool{}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			seenMu.Lock()
			seen[ni][r.URL.Path] = true
			seenMu.Unlock()
			handler.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		nodes = append(nodes, n)
		urls = append(urls, ts.URL)
	}
	coord, err := cluster.New(cluster.Config{
		Hasher: h, Pub: signKey(t).Public(), Params: sr.Params, Schema: sr.Schema,
		Policy: accessctl.NewPolicy(accessctl.Role{Name: "all"}),
		Spec:   set.Spec, Nodes: urls, Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Place(set); err != nil {
		t.Fatal(err)
	}

	owner := sr.Clone()
	replanned := 0 // mirror fixes on a node that prepared the same delta
	apply := func(what string, edit func() error) {
		t.Helper()
		before := owner.Clone()
		if err := edit(); err != nil {
			t.Fatalf("%s: owner edit: %v", what, err)
		}
		for _, m := range seen {
			clear(m)
		}
		if _, err := coord.ApplyDelta(delta.Diff(before, owner)); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for _, m := range seen {
			if m[wire.NodeDeltaRPC.Path] && m[wire.NodeMirrorRPC.Path] {
				replanned++
			}
		}
	}
	// edge returns shard i's first (first) or last owned record in the
	// owner's current chain, by the spec's span.
	edge := func(i int, first bool) *core.SignedRecord {
		lo, hi := set.Spec.Span(i)
		var out *core.SignedRecord
		for _, rec := range owner.Recs[1 : len(owner.Recs)-1] {
			if rec.Key() >= lo && rec.Key() <= hi {
				out = rec
				if first {
					break
				}
			}
		}
		return out
	}
	insertAfter := func(rec *core.SignedRecord) func() error {
		return func() error {
			_, err := owner.Insert(h, signKey(t), relation.Tuple{Key: rec.Key() + 1, Attrs: rec.Tuple.Attrs})
			return err
		}
	}
	del := func(rec *core.SignedRecord) func() error {
		return func() error {
			_, err := owner.Delete(h, signKey(t), rec.Key(), rec.Tuple.RowID)
			return err
		}
	}
	update := func(rec *core.SignedRecord, payload string) func() error {
		return func() error {
			_, err := owner.UpdateAttrs(h, signKey(t), rec.Key(), rec.Tuple.RowID,
				[]relation.Value{relation.BytesVal([]byte(payload))})
			return err
		}
	}

	resumed := 0
	check := func(step string) {
		t.Helper()
		for ni, n := range nodes {
			for shard, c := range n.s.CachedDigests("Uniform") {
				want, wantRun := partition.SliceDigestFrom(h, c.Slice, nil, 0)
				if c.Digest != nil && !c.Digest.Equal(want) {
					t.Fatalf("%s: node %d shard %d: cached digest is not the slice's", step, ni, shard)
				}
				if c.Run != nil {
					if c.Digest == nil || string(c.Run) != string(wantRun) {
						t.Fatalf("%s: node %d shard %d: running digests are not the slice's", step, ni, shard)
					}
					resumed++
				}
			}
		}
	}

	check("placement")
	for i := 0; i+1 < 4; i++ {
		apply("insert after shard's last record", insertAfter(edge(i, false)))
		check("edge insert")
		apply("delete right shard's first record", del(edge(i+1, true)))
		check("edge delete (right of seam)")
		apply("delete shard's last record", del(edge(i, false)))
		check("edge delete (left of seam)")
		apply("interior update", update(owner.Recs[len(owner.Recs)/2], fmt.Sprint("x", i)))
		check("interior update")
	}
	hosting := map[string]bool{}
	for _, url := range coord.ReplicaSets()[1] {
		hosting[url] = true
	}
	for _, url := range urls {
		if !hosting[url] {
			if _, err := coord.Rebalance(1, url); err != nil {
				t.Fatalf("rebalance: %v", err)
			}
			break
		}
	}
	check("rebalance")
	apply("update on the moved shard", update(edge(1, true), "y"))
	check("first commit after the move")
	apply("insert on the moved shard", insertAfter(edge(1, false)))
	check("second commit after the move")
	if resumed == 0 {
		t.Fatal("no commit kept running digests")
	}
	if replanned == 0 {
		t.Fatal("no mirror fix landed on a prepared transaction")
	}

	for ni, n := range nodes {
		published := n.s.CachedDigests("Uniform")
		n.s.Close()
		n.ns.Close()
		ns, rep, err := store.OpenNode(n.dir, store.Options{Hasher: h, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Refused) != 0 || rep.Replayed == 0 {
			t.Fatalf("node %d replay: refused %v, %d records replayed", ni, rep.Refused, rep.Replayed)
		}
		got := ns.Recovered()["Uniform"].Shards
		if len(got) != len(published) {
			t.Fatalf("node %d recovered %d slices, published %d", ni, len(got), len(published))
		}
		for _, sh := range got {
			if !partition.SameSlice(sh.Slice, published[sh.Shard].Slice) {
				t.Fatalf("node %d shard %d replayed to a slice the node never published", ni, sh.Shard)
			}
		}
		ns.Close()
	}
}
