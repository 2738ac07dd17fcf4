package server_test

import (
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/server"
	"vcqr/internal/wire"
)

// TestStagingSharesNoWritableBytes pins the other half of core's Clone
// contract: a staged delta's slices share their records, by pointer,
// with the epoch readers are serving, so staging, mirror fixes, the
// durable commit's replay probe and abort must never write through them.
// Under -race a write through a shared record is a reported race;
// without it, the source's digests move.
func TestStagingSharesNoWritableBytes(t *testing.T) {
	t.Run("node", stagingNode)
	t.Run("K=1", stagingOneShard)
}

// stagingNode: a durable node hosting every shard — installed from
// clones of the set an in-process partitioned server publishes — takes
// 50 deltas, a third aborted, while readers validate each published
// slice, drain its node sub-stream and verify the partitioned server's
// /stream.
func stagingNode(t *testing.T) {
	const k = 4
	f := newPartServer(t, 64, k)
	pub := signKey(t).Public()
	spec := f.set.Spec
	setDigests := make([]hashx.Digest, k)
	for i, sl := range f.set.Slices {
		setDigests[i] = partition.SliceDigest(f.h, sl)
	}

	ns := openStore(t, f.h, t.TempDir())
	defer ns.Close()
	node := server.New(server.Config{
		Hasher: f.h, Pub: pub, Policy: accessctl.NewPolicy(f.role), Store: ns,
	})
	defer node.Close()
	for i, sl := range f.set.Slices {
		man := wire.ShardManifest{Spec: spec, Shard: i, Params: sl.Params, Schema: sl.Schema, Records: len(sl.Recs)}
		if err := node.InstallShard(man, sl.Clone()); err != nil {
			t.Fatalf("install shard %d: %v", i, err)
		}
	}
	nodeTS := httptest.NewServer(node.Handler())
	defer nodeTS.Close()
	partTS := httptest.NewServer(f.s.Handler())
	defer partTS.Close()

	readSlices := func() error {
		for i := 0; i < k; i++ {
			sl, ok := node.ShardSlice("Uniform", i)
			if !ok {
				return fmt.Errorf("shard %d not hosted", i)
			}
			all := make([]int, len(sl.Recs))
			for j := range all {
				all[j] = j
			}
			if err := delta.ValidateTouched(f.h, pub, sl, all, true); err != nil {
				return fmt.Errorf("published shard %d: %w", i, err)
			}
			lo, hi := spec.Span(i)
			st, err := (&wire.Client{BaseURL: nodeTS.URL}).ShardStream(wire.ShardStreamRequest{
				Role: "all", Query: engine.Query{Relation: "Uniform", KeyLo: lo, KeyHi: hi},
				Shard: i, Lo: lo, Hi: hi, First: true, Last: true, ChunkRows: 8,
			}, false)
			if err != nil {
				return fmt.Errorf("shard %d sub-stream: %w", i, err)
			}
			for err == nil {
				_, err = st.Next()
			}
			st.Close()
			if err != io.EOF {
				return fmt.Errorf("shard %d sub-stream: %w", i, err)
			}
		}
		return nil
	}
	readStream := func() error {
		q := engine.Query{Relation: "Uniform"}
		sv, err := f.v.NewShardStreamVerifier(spec, q, f.role)
		if err != nil {
			return err
		}
		rows := 0
		if _, err := (&wire.Client{BaseURL: partTS.URL}).QueryStreamWith(sv, "all", q, 8, func(engine.Row) error {
			rows++
			return nil
		}); err != nil {
			return err
		}
		if rows != 64 {
			return fmt.Errorf("verified %d rows, want 64", rows)
		}
		return nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, read := range []func() error{readSlices, readSlices, readStream} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := read(); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}

	for step := 0; step < 50; step++ {
		shard := step % k
		sl := f.set.Slices[shard]
		rec := sl.Recs[len(sl.Recs)/2] // interior
		if step%2 == 1 {
			rec = sl.Recs[1] // re-signs across the left seam
		}
		abort := step%3 == 0
		keep := f.owner.Clone()
		d := f.mintDelta(t, f.globalIndexOf(t, rec.Key(), rec.Tuple.RowID), []byte(fmt.Sprintf("step-%d", step)))
		if abort {
			f.owner = keep // no publisher ever applies it
		}
		resp, err := node.PrepareNodeDelta(wire.NodeDeltaRequest{Delta: d})
		if err != nil {
			t.Fatalf("step %d: prepare: %v", step, err)
		}
		if shard < k-1 {
			// A mirror fix into the right neighbour, echoing what the
			// stitch already staged: StageMirror clones the published
			// neighbour when the prepare left it unstaged.
			for _, m := range resp.Modified {
				if m.Shard != shard {
					continue
				}
				if _, err := node.StageMirror(wire.MirrorRequest{
					Token: resp.Token, Relation: "Uniform", Shard: shard + 1, Left: true, Rec: m.Edges.Tail[1],
				}); err != nil {
					t.Fatalf("step %d: mirror fix: %v", step, err)
				}
			}
		}
		if _, err := node.FinishNodeDelta(wire.TxRequest{Relation: "Uniform", Token: resp.Token, Commit: !abort}); err != nil {
			t.Fatalf("step %d: finish: %v", step, err)
		}
	}
	close(stop)
	wg.Wait()

	for i, sl := range f.set.Slices {
		if !partition.SliceDigest(f.h, sl).Equal(setDigests[i]) {
			t.Fatalf("shard %d: staging wrote through to the published set's bytes", i)
		}
	}
	if err := readSlices(); err != nil {
		t.Fatal(err)
	}
	// The node published exactly the owner's committed state.
	want, err := partition.Split(f.owner, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		got, _ := node.ShardSlice("Uniform", i)
		if !partition.SliceDigest(f.h, got).Equal(partition.SliceDigest(f.h, want.Slices[i])) {
			t.Fatalf("shard %d: node diverged from the owner's committed state", i)
		}
	}
}

// stagingOneShard: a K = 1 table published by AddRelation from a clone
// of source takes 30 in-process deltas, a third of them refused (a
// signature bit lost in transit), while readers validate the published
// relation and verify its /stream. The refused deltas stage on a clone
// too, so neither kind may move source.
func stagingOneShard(t *testing.T) {
	const n = 64
	h, owner := build(t, n)
	pub := signKey(t).Public()
	source := owner.Clone()
	want := partition.SliceDigest(h, source)
	s := newBareServer(t, h)
	if err := s.AddRelation(source.Clone(), false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	v := verifierFor(t, h, source)

	readRelation := func() error {
		sl, ok := s.ShardSlice("Uniform", 0)
		if !ok {
			return fmt.Errorf("the relation is not hosted as shard 0")
		}
		return sl.Validate(h, pub)
	}
	readStream := func() error {
		rows := 0
		if _, err := (&wire.Client{BaseURL: ts.URL}).QueryStream(v, roleAll(), "all", engine.Query{Relation: "Uniform"}, 8,
			func(engine.Row) error {
				rows++
				return nil
			}); err != nil {
			return err
		}
		if rows != n {
			return fmt.Errorf("verified %d rows, want %d", rows, n)
		}
		return nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, read := range []func() error{readRelation, readStream} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := read(); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}

	for step := 0; step < 30; step++ {
		refuse := step%3 == 0
		keep := owner.Clone()
		idx := 1 + step*7%n // the first data record re-signs the left delimiter
		d := ownerUpdate(t, h, owner, idx, []byte(fmt.Sprintf("step-%d", step)))
		if refuse {
			owner = keep // no publisher ever applies it
			op := &d.Ops[len(d.Ops)/2]
			op.Rec.Sig = append([]byte(nil), op.Rec.Sig...)
			op.Rec.Sig[0] ^= 1
		}
		_, err := s.ApplyDelta(d)
		if refuse != errors.Is(err, delta.ErrValidation) || (!refuse && err != nil) {
			t.Fatalf("step %d (refuse %v): ApplyDelta: %v", step, refuse, err)
		}
	}
	close(stop)
	wg.Wait()

	if !partition.SliceDigest(h, source).Equal(want) {
		t.Fatal("staging wrote through to the published relation's records")
	}
	if err := readRelation(); err != nil {
		t.Fatal(err)
	}
	got, _ := s.ShardSlice("Uniform", 0)
	if !partition.SliceDigest(h, got).Equal(partition.SliceDigest(h, owner)) {
		t.Fatal("the server diverged from the owner's committed state")
	}
}
