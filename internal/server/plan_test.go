package server_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/delta"
	"vcqr/internal/partition"
	"vcqr/internal/server"
	"vcqr/internal/store"
	"vcqr/internal/wire"
)

// noPlanLeft fails if a staged transaction's commit-plan goroutine is
// still planning. It looks for the planner's frame, not the goroutine's:
// one that has closed its done channel may not have returned yet.
func noPlanLeft(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "server.(*Server).planShard") {
		t.Fatalf("a commit-plan goroutine outlived its transaction:\n%s", stacks)
	}
}

// TestCommitPlanLeavesNoGoroutine: on a durable node every way a staged
// transaction ends waits for its commit-plan goroutine — an abort, a
// commit after a mirror fix re-planned a shard, a re-prepare and a
// token-0 mirror fix that discard it. The transaction a re-prepare
// discarded answers ErrStagedToken. Then the store reopens and every
// logged commit replays to its PostDigest and to the slices the node
// published.
func TestCommitPlanLeavesNoGoroutine(t *testing.T) {
	const k = 4
	f := newPartServer(t, 256, k)
	dir := t.TempDir()
	ns := openStore(t, f.h, dir)
	node := server.New(server.Config{
		Hasher: f.h, Pub: signKey(t).Public(), Policy: accessctl.NewPolicy(f.role), Store: ns,
	})
	for i, sl := range f.set.Slices {
		man := wire.ShardManifest{Spec: f.set.Spec, Shard: i, Params: sl.Params, Schema: sl.Schema, Records: len(sl.Recs)}
		if err := node.InstallShard(man, sl.Clone()); err != nil {
			t.Fatalf("install shard %d: %v", i, err)
		}
	}
	// mint returns an update of shard i's record at idx; unless it will
	// commit, the owner forgets it.
	mint := func(shard, idx int, payload string, commits bool) delta.Delta {
		rec := f.set.Slices[shard].Recs[idx]
		keep := f.owner.Clone()
		d := f.mintDelta(t, f.globalIndexOf(t, rec.Key(), rec.Tuple.RowID), []byte(payload))
		if !commits {
			f.owner = keep
		}
		return d
	}
	prepare := func(d delta.Delta) wire.NodeDeltaResponse {
		t.Helper()
		resp, err := node.PrepareNodeDelta(wire.NodeDeltaRequest{Delta: d})
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		return resp
	}
	finish := func(token uint64, commit bool) error {
		_, err := node.FinishNodeDelta(wire.TxRequest{Relation: "Uniform", Token: token, Commit: commit})
		return err
	}

	// A re-prepare discards the first transaction; an abort ends the second.
	d := mint(1, 10, "discarded", false)
	first := prepare(d)
	second := prepare(d)
	if err := finish(first.Token, true); !errors.Is(err, server.ErrStagedToken) {
		t.Fatalf("commit of a discarded transaction: %v, want ErrStagedToken", err)
	}
	if err := finish(second.Token, false); err != nil {
		t.Fatal(err)
	}
	noPlanLeft(t)

	// A seam-crossing delta, then a mirror fix into shard 2 (echoing the
	// record the stitch staged): the fix re-plans shard 2, and the commit
	// waits for that plan.
	resp := prepare(mint(1, len(f.set.Slices[1].Recs)-2, "committed", true))
	for _, m := range resp.Modified {
		if m.Shard == 1 {
			if _, err := node.StageMirror(wire.MirrorRequest{
				Token: resp.Token, Relation: "Uniform", Shard: 2, Left: true, Rec: m.Edges.Tail[1],
			}); err != nil {
				t.Fatalf("mirror fix: %v", err)
			}
		}
	}
	if err := finish(resp.Token, true); err != nil {
		t.Fatal(err)
	}
	noPlanLeft(t)

	// A token-0 mirror fix discards a prepared transaction and opens its
	// own, which an abort ends.
	prepare(mint(3, 10, "discarded too", false))
	sl1, _ := node.ShardSlice("Uniform", 1)
	fix, err := node.StageMirror(wire.MirrorRequest{Relation: "Uniform", Shard: 0, Rec: *sl1.Recs[1]})
	if err != nil {
		t.Fatalf("token-0 mirror fix: %v", err)
	}
	if err := finish(fix.Token, false); err != nil {
		t.Fatal(err)
	}
	noPlanLeft(t)

	published := node.CachedDigests("Uniform")
	node.Close()
	ns.Close()
	reopened, rep, err := store.OpenNode(dir, store.Options{Hasher: f.h, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if len(rep.Refused) != 0 {
		t.Fatalf("replay refused %v", rep.Refused)
	}
	for _, sh := range reopened.Recovered()["Uniform"].Shards {
		if !partition.SameSlice(sh.Slice, published[sh.Shard].Slice) {
			t.Fatalf("shard %d replayed to a slice the node never published", sh.Shard)
		}
	}
}
