package store_test

import (
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/server"
	"vcqr/internal/sig"
	"vcqr/internal/store"
	"vcqr/internal/wire"
	"vcqr/internal/workload"
)

// An insert or delete at a shard's edge changes the neighbour's context
// record's identity. Through a durable node hosting every shard, the
// neighbour's commit must still be logged as ops — the diff re-seats the
// context record — not as a full slice, and a cold start must replay
// every shard to what the node published. Both sides: deleting shard 1's
// first owned record swaps shard 0's right context, deleting shard 0's
// last owned record swaps shard 1's left context.
func TestEdgeDeleteLogsOps(t *testing.T) {
	key, err := sig.Generate(sig.DefaultBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := hashx.New()
	rel, err := workload.Uniform(workload.UniformConfig{N: 48, L: 0, U: 1 << 20, PayloadSize: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewParams(0, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	master, err := core.Build(h, key, p, rel)
	if err != nil {
		t.Fatal(err)
	}
	set, err := partition.Split(master, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		victim    *core.SignedRecord
		neighbour int
	}{
		{"right-context", set.Slices[1].Recs[1], 0},
		{"left-context", set.Slices[0].Recs[len(set.Slices[0].Recs)-2], 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := store.Options{Hasher: h, SnapshotEvery: -1}
			ns, _, err := store.OpenNode(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			s := server.New(server.Config{
				Hasher: h, Pub: key.Public(), Policy: accessctl.NewPolicy(accessctl.Role{Name: "all"}), Store: ns,
			})
			for i, sl := range set.Slices {
				man := wire.ShardManifest{Spec: set.Spec, Shard: i, Params: p, Schema: master.Schema, Records: len(sl.Recs)}
				if err := s.InstallShard(man, sl.Clone()); err != nil {
					t.Fatalf("install shard %d: %v", i, err)
				}
			}
			owner := master.Clone()
			if _, err := owner.Delete(h, key, tc.victim.Key(), tc.victim.Tuple.RowID); err != nil {
				t.Fatal(err)
			}
			prep, err := s.PrepareNodeDelta(wire.NodeDeltaRequest{Delta: delta.Diff(master, owner)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.FinishNodeDelta(wire.TxRequest{Relation: "Uniform", Token: prep.Token, Commit: true}); err != nil {
				t.Fatal(err)
			}
			published := map[int]hashx.Digest{}
			for i := range set.Slices {
				info, err := s.ShardDigestInfo(wire.ShardRef{Relation: "Uniform", Shard: i})
				if err != nil {
					t.Fatal(err)
				}
				published[i] = info.Digest
			}
			s.Close()
			ns.Close()

			logged, err := store.LoggedCommits(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(logged) != 1 {
				t.Fatalf("%d commit records, want 1", len(logged))
			}
			sawNeighbour := false
			for _, sh := range logged[0] {
				if sh.Full || sh.Ops == 0 {
					t.Errorf("shard %d logged as %+v, want ops", sh.Shard, sh)
				}
				sawNeighbour = sawNeighbour || sh.Shard == tc.neighbour
			}
			if !sawNeighbour {
				t.Fatalf("commit %+v does not carry neighbour shard %d", logged[0], tc.neighbour)
			}

			ns2, rep, err := store.OpenNode(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ns2.Close()
			if len(rep.Refused) != 0 {
				t.Fatalf("replay refused: %v", rep.Refused)
			}
			for _, sh := range ns2.Recovered()["Uniform"].Shards {
				if !partition.SliceDigest(h, sh.Slice).Equal(published[sh.Shard]) {
					t.Fatalf("shard %d replayed to a slice the node never published", sh.Shard)
				}
			}
		})
	}
}
