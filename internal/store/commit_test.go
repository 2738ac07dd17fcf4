package store

import (
	"testing"

	"vcqr/internal/hashx"
	"vcqr/internal/partition"
)

// LogCommit's round-trip check, both branches: ops that reproduce the
// staged slice are logged as ops; a diff that does not round-trip — here
// an Old out of identity order, so the one-walk diff pairs the wrong
// entries — is logged as the full slice. Both replay to the committed
// state.
func TestLogCommitRoundTripBranches(t *testing.T) {
	h := hashx.New()
	set := buildSet(t, h, 24, 1)
	for _, tc := range []struct {
		name     string
		scramble bool
		full     bool
	}{
		{"in-order", false, false},
		{"out-of-order", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Hasher: h, SnapshotEvery: -1}
			ns, _, err := OpenNode(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			install(t, ns, "Uniform", set)
			old := set.Slices[0]
			next := evolve(t, h, old, len(old.Recs)/2, []byte("round-trip"))
			if tc.scramble {
				old = old.Clone()
				old.Recs[2], old.Recs[3] = old.Recs[3], old.Recs[2]
			}
			postDg := partition.SliceDigest(h, next)
			if err := ns.LogCommit("Uniform", []CommitShard{{Shard: 0, Old: old, New: next, PostDigest: postDg}}); err != nil {
				t.Fatal(err)
			}
			ns.Close()

			logged, err := LoggedCommits(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(logged) != 1 || len(logged[0]) != 1 {
				t.Fatalf("logged commits %+v, want one with one shard", logged)
			}
			if got := logged[0][0]; got.Full != tc.full || (got.Ops > 0) == tc.full {
				t.Fatalf("logged %+v, want full slice = %v", got, tc.full)
			}
			ns2, rep, err := OpenNode(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ns2.Close()
			if len(rep.Refused) != 0 {
				t.Fatalf("replay refused: %v", rep.Refused)
			}
			if sh := ns2.Recovered()["Uniform"].Shards[0]; !partition.SliceDigest(h, sh.Slice).Equal(postDg) {
				t.Fatal("the commit did not replay to the committed slice")
			}
		})
	}
}

// BenchmarkLogCommit times one shard's durable commit the way a node
// pays it per delta: a 1,026-entry slice (the benchmark's K = 4 shard)
// and a one-record attribute update — three re-signed entries — diffed,
// round-tripped on a probe and appended with fsync. Snapshots are off,
// so the figure is the per-commit path alone.
func BenchmarkLogCommit(b *testing.B) {
	h := hashx.New()
	set := buildSet(b, h, 1024, 1)
	old := set.Slices[0]
	if len(old.Recs) != 1026 {
		b.Fatalf("slice has %d entries", len(old.Recs))
	}
	next := evolve(b, h, old, len(old.Recs)/2, []byte("bench"))
	postDg := partition.SliceDigest(h, next)
	ns, _, err := OpenNode(b.TempDir(), Options{Hasher: h, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer ns.Close()
	if err := ns.LogInstall("Uniform", set.Spec, 0, old, partition.SliceDigest(h, old)); err != nil {
		b.Fatal(err)
	}
	cs := []CommitShard{{Shard: 0, Old: old, New: next, PostDigest: postDg}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ns.LogCommit("Uniform", cs); err != nil {
			b.Fatalf("commit %d: %v", i, err)
		}
	}
}

// BenchmarkReplay times a cold start that replays one install of a
// 1,026-entry slice and 32 committed one-record updates, each logged as
// ops: decode, ApplyOps and the PostDigest compare per commit, the
// digest resumed at the first entry each commit's ops touched.
func BenchmarkReplay(b *testing.B) {
	h := hashx.New()
	set := buildSet(b, h, 1024, 1)
	dir := b.TempDir()
	ns, _, err := OpenNode(dir, Options{Hasher: h, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	cur := set.Slices[0]
	if err := ns.LogInstall("Uniform", set.Spec, 0, cur, partition.SliceDigest(h, cur)); err != nil {
		b.Fatal(err)
	}
	for i := range 32 {
		next := evolve(b, h, cur, 1+(i*97)%(len(cur.Recs)-2), []byte{byte(i)})
		if err := ns.LogCommit("Uniform", []CommitShard{{Shard: 0, Old: cur, New: next, PostDigest: partition.SliceDigest(h, next)}}); err != nil {
			b.Fatal(err)
		}
		cur = next
	}
	ns.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns, rep, err := OpenNode(dir, Options{Hasher: h, SnapshotEvery: -1})
		if err != nil || len(rep.Refused) != 0 || rep.Replayed != 33 {
			b.Fatalf("replay: %v, refused %v, %d replayed", err, rep.Refused, rep.Replayed)
		}
		ns.Close()
	}
}
