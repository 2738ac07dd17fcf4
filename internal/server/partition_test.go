package server_test

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/server"
	"vcqr/internal/verify"
	"vcqr/internal/wire"
	"vcqr/internal/workload"
)

// partFix is a running partitioned server plus the owner-side master
// copy used to mint deltas and the client-side verifier.
type partFix struct {
	h     *hashx.Hasher
	s     *server.Server
	set   *partition.Set
	owner *core.SignedRelation // owner's evolving master (global chain)
	v     *verify.Verifier
	role  accessctl.Role
}

func newPartServer(t testing.TB, n, k int) *partFix {
	t.Helper()
	h, sr := build(t, n)
	return newPartServerOver(t, h, sr, k)
}

func newPartServerOver(t testing.TB, h *hashx.Hasher, sr *core.SignedRelation, k int) *partFix {
	t.Helper()
	set, err := partition.Split(sr, k)
	if err != nil {
		t.Fatal(err)
	}
	role := accessctl.Role{Name: "all"}
	s := server.New(server.Config{
		Hasher: h,
		Pub:    signKey(t).Public(),
		Policy: accessctl.NewPolicy(role),
	})
	t.Cleanup(s.Close)
	if err := s.AddPartition(set, true); err != nil {
		t.Fatal(err)
	}
	return &partFix{
		h:     h,
		s:     s,
		set:   set,
		owner: sr.Clone(),
		v:     verify.New(h, signKey(t).Public(), sr.Params, sr.Schema),
		role:  role,
	}
}

// TestPartitionedStreamEndToEnd is the acceptance path: a range query
// spanning >=3 shards round-trips over HTTP /stream and verifies with
// the shard-aware verifier.
func TestPartitionedStreamEndToEnd(t *testing.T) {
	f := newPartServer(t, 96, 4)
	ts := httptest.NewServer(f.s.Handler())
	defer ts.Close()
	client := &wire.Client{BaseURL: ts.URL}

	// Span shards 0..2 (three shards): from the first record up to the
	// middle of shard 2.
	sl2 := f.set.Slices[2]
	q := engine.Query{
		Relation: "Uniform",
		KeyLo:    1,
		KeyHi:    sl2.Recs[len(sl2.Recs)/2].Key(),
	}
	sv, err := f.v.NewShardStreamVerifier(f.set.Spec, q, f.role)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	stats, err := client.QueryStreamWith(sv, "all", q, 8, func(engine.Row) error {
		rows++
		return nil
	})
	if err != nil {
		t.Fatalf("stream rejected: %v", err)
	}
	if rows != stats.Rows || rows == 0 {
		t.Fatalf("row accounting: fn saw %d, stats %d", rows, stats.Rows)
	}
	// Cross-check against the same stream collected into a materialized
	// result.
	res, err := client.Query("all", q)
	if err != nil {
		t.Fatal(err)
	}
	verified, err := f.v.VerifyResult(q, f.role, res)
	if err != nil {
		t.Fatalf("materialized partitioned result rejected: %v", err)
	}
	if len(verified) != rows {
		t.Fatalf("stream verified %d rows, materialized %d", rows, len(verified))
	}

	st := f.s.Stats()
	ps, ok := st.Partitions["Uniform"]
	if !ok || len(ps.Shards) != 4 {
		t.Fatalf("partition stats missing: %+v", st.Partitions)
	}
	if ps.Fanouts < 2 {
		t.Fatalf("fan-out counter = %d, want >= 2", ps.Fanouts)
	}
	for i := 0; i < 3; i++ {
		if ps.Shards[i].Queries == 0 {
			t.Fatalf("shard %d has no routed queries: %+v", i, ps.Shards)
		}
	}
	if st.Relations["Uniform"] != 96 {
		t.Fatalf("stats report %d records, want 96", st.Relations["Uniform"])
	}
	// Each of the two /stream requests above is a merged stream and is
	// observed as the coordinator observes its own (docs/OPERATIONS.md
	// stage table).
	if n := f.s.Obs().Snapshot()[obs.StageFanoutMerge].Count(); n != 2 {
		t.Fatalf("fanout_merge observed %d times for two partitioned /stream requests, want 2", n)
	}
}

// mintDelta routes an owner-side attribute update through delta.Diff —
// the exact batch a publisher would receive.
func (f *partFix) mintDelta(t testing.TB, idx int, payload []byte) delta.Delta {
	t.Helper()
	before := f.owner.Clone()
	rec := f.owner.Recs[idx]
	if _, err := f.owner.UpdateAttrs(f.h, signKey(t), rec.Key(), rec.Tuple.RowID,
		[]relation.Value{relation.BytesVal(payload)}); err != nil {
		t.Fatal(err)
	}
	return delta.Diff(before, f.owner)
}

// globalIndexOfShardRecord maps shard s's owned record r (1-based within
// the slice) to its index in the owner's master sequence.
func (f *partFix) globalIndexOf(t testing.TB, key, rowID uint64) int {
	t.Helper()
	for i, rec := range f.owner.Recs {
		if rec.Key() == key && rec.Tuple.RowID == rowID {
			return i
		}
	}
	t.Fatalf("record (%d,%d) not in master", key, rowID)
	return -1
}

// TestPartitionedDeltaIsolation: a delta interior to shard 1 must bump
// only shard 1's epoch, and queries on every shard must still verify.
func TestPartitionedDeltaIsolation(t *testing.T) {
	f := newPartServer(t, 96, 4)

	// One point query per shard.
	queries := make([]engine.Query, 4)
	for i := range queries {
		sl := f.set.Slices[i]
		mid := sl.Recs[len(sl.Recs)/2]
		queries[i] = engine.Query{Relation: "Uniform", KeyLo: mid.Key(), KeyHi: mid.Key()}
	}
	run := func() {
		for i, q := range queries {
			res, err := collect(f.s, "all", q)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			if _, err := f.v.VerifyResult(q, f.role, res); err != nil {
				t.Fatalf("query %d rejected: %v", i, err)
			}
		}
	}
	run()
	before := f.s.Stats()

	// Interior update to shard 1: pick the middle owned record of slice 1
	// (its re-sign neighbourhood stays inside the shard).
	sl1 := f.set.Slices[1]
	midRec := sl1.Recs[len(sl1.Recs)/2]
	d := f.mintDelta(t, f.globalIndexOf(t, midRec.Key(), midRec.Tuple.RowID), []byte("v2"))
	if _, err := f.s.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}

	run()
	ps := f.s.Stats().Partitions["Uniform"]
	if ps.Shards[1].Deltas != 1 {
		t.Fatalf("shard 1 delta counter = %d", ps.Shards[1].Deltas)
	}
	for _, i := range []int{0, 2, 3} {
		if ps.Shards[i].Deltas != 0 {
			t.Fatalf("shard %d saw a delta", i)
		}
		if ps.Shards[i].Epoch != before.Partitions["Uniform"].Shards[i].Epoch {
			t.Fatalf("shard %d epoch moved on an interior delta to shard 1", i)
		}
	}
}

// TestPartitionedBoundaryDelta: an update to a shard's edge record
// re-signs across the hand-off; both shards and their mirrors must stay
// consistent, and cross-shard queries must keep verifying.
func TestPartitionedBoundaryDelta(t *testing.T) {
	f := newPartServer(t, 64, 4)

	// Shard 1's first owned record: its neighbourhood reaches shard 0.
	edge := f.set.Slices[1].Recs[1]
	d := f.mintDelta(t, f.globalIndexOf(t, edge.Key(), edge.Tuple.RowID), []byte("edge-v2"))
	if _, err := f.s.ApplyDelta(d); err != nil {
		t.Fatalf("boundary delta rejected: %v", err)
	}

	// Full-range query across all shards must verify post-delta.
	q := engine.Query{Relation: "Uniform"}
	res, err := collect(f.s, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := f.v.VerifyResult(q, f.role, res)
	if err != nil {
		t.Fatalf("cross-shard query rejected after boundary delta: %v", err)
	}
	if len(rows) != 64 {
		t.Fatalf("got %d rows, want 64", len(rows))
	}
	ps := f.s.Stats().Partitions["Uniform"]
	if ps.Shards[0].Deltas+ps.Shards[1].Deltas < 2 {
		t.Fatalf("boundary delta should touch both shards: %+v", ps.Shards)
	}
}

// TestPartitionedInsertDelete: inserts and deletes route to the owning
// shard and keep the partitioned publication verifiable end to end.
func TestPartitionedInsertDelete(t *testing.T) {
	f := newPartServer(t, 64, 4)

	// Insert a key owned by shard 2.
	lo, hi := f.set.Spec.Span(2)
	key := (lo + hi) / 2
	before := f.owner.Clone()
	if _, err := f.owner.Insert(f.h, signKey(t), relation.Tuple{
		Key: key, Attrs: []relation.Value{relation.BytesVal([]byte("inserted"))},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.s.ApplyDelta(delta.Diff(before, f.owner)); err != nil {
		t.Fatalf("insert delta rejected: %v", err)
	}

	// Delete a record owned by shard 0.
	victim := f.set.Slices[0].Recs[2]
	before = f.owner.Clone()
	if _, err := f.owner.Delete(f.h, signKey(t), victim.Key(), victim.Tuple.RowID); err != nil {
		t.Fatal(err)
	}
	if _, err := f.s.ApplyDelta(delta.Diff(before, f.owner)); err != nil {
		t.Fatalf("delete delta rejected: %v", err)
	}

	q := engine.Query{Relation: "Uniform"}
	res, err := collect(f.s, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := f.v.VerifyResult(q, f.role, res)
	if err != nil {
		t.Fatalf("post-delta cross-shard query rejected: %v", err)
	}
	if len(rows) != 64 {
		t.Fatalf("got %d rows, want 64 (one insert, one delete)", len(rows))
	}
}

// TestPartitionedShardUnderflow: a delta draining a shard of its last
// owned record is rejected by name and leaves every epoch untouched.
func TestPartitionedShardUnderflow(t *testing.T) {
	// 4 records, 4 shards: each shard owns exactly one record.
	f := newPartServer(t, 4, 4)
	victim := f.set.Slices[1].Recs[1]
	before := f.owner.Clone()
	if _, err := f.owner.Delete(f.h, signKey(t), victim.Key(), victim.Tuple.RowID); err != nil {
		t.Fatal(err)
	}
	epochBefore := f.s.Stats().Epoch
	_, err := f.s.ApplyDelta(delta.Diff(before, f.owner))
	if !errors.Is(err, server.ErrShardUnderflow) {
		t.Fatalf("draining delta: got %v, want ErrShardUnderflow", err)
	}
	if f.s.Stats().Epoch != epochBefore {
		t.Fatal("rejected delta advanced an epoch")
	}
}

// TestPartitionedStreamPinsEpochs: a stream opened before a delta keeps
// verifying against its pinned per-shard epochs even while the delta
// cuts over mid-drain.
func TestPartitionedStreamPinsEpochs(t *testing.T) {
	f := newPartServer(t, 96, 4)
	q := engine.Query{Relation: "Uniform"}
	st, err := f.s.QueryStream("all", q, 8)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := f.v.NewShardStreamVerifier(f.set.Spec, q, f.role)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the header, then land a delta on shard 2 mid-stream.
	c, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Consume(c); err != nil {
		t.Fatal(err)
	}
	sl2 := f.set.Slices[2]
	midRec := sl2.Recs[len(sl2.Recs)/2]
	d := f.mintDelta(t, f.globalIndexOf(t, midRec.Key(), midRec.Tuple.RowID), []byte("mid-stream"))
	if _, err := f.s.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	// The rest of the stream must still verify: its slices were pinned.
	for {
		c, err := st.Next()
		if err != nil {
			break
		}
		if _, err := sv.Consume(c); err != nil {
			t.Fatalf("pinned stream rejected after concurrent delta: %v", err)
		}
	}
	if err := sv.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionedRejectsDuplicateHosting: one name cannot be both a
// plain relation and a partition.
func TestPartitionedRejectsDuplicateHosting(t *testing.T) {
	f := newPartServer(t, 16, 2)
	_, sr := build(t, 16)
	if err := f.s.AddRelation(sr, false); !errors.Is(err, server.ErrAlreadyHosted) {
		t.Fatalf("duplicate hosting: got %v, want ErrAlreadyHosted", err)
	}
	set2, err := partition.Split(sr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.s.AddPartition(set2, false); !errors.Is(err, server.ErrAlreadyHosted) {
		t.Fatalf("duplicate partition hosting: got %v, want ErrAlreadyHosted", err)
	}

	// And the reverse order: a partition cannot shadow a relation that is
	// already hosted plain.
	h2, sr2 := build(t, 16)
	plain := server.New(server.Config{
		Hasher: h2,
		Pub:    signKey(t).Public(),
		Policy: accessctl.NewPolicy(accessctl.Role{Name: "all"}),
	})
	t.Cleanup(plain.Close)
	if err := plain.AddRelation(sr2, false); err != nil {
		t.Fatal(err)
	}
	if err := plain.AddPartition(set2, false); !errors.Is(err, server.ErrAlreadyHosted) {
		t.Fatalf("partition shadowing a plain relation: got %v, want ErrAlreadyHosted", err)
	}
}

// TestPartitionedBatch: batch items against a partitioned relation are
// answered per shard and verify independently.
func TestPartitionedBatch(t *testing.T) {
	f := newPartServer(t, 64, 4)
	var qs []engine.Query
	for i := 0; i < 4; i++ {
		lo, hi := f.set.Spec.Span(i)
		qs = append(qs, engine.Query{Relation: "Uniform", KeyLo: lo, KeyHi: hi})
	}
	total := 0
	for i, q := range qs {
		res, err := collect(f.s, "all", q)
		if err != nil {
			t.Fatalf("batch item %d: %v", i, err)
		}
		rows, err := f.v.VerifyResult(q, f.role, res)
		if err != nil {
			t.Fatalf("batch item %d rejected: %v", i, err)
		}
		total += len(rows)
	}
	if total != 64 {
		t.Fatalf("batch verified %d rows total, want 64", total)
	}
}

// TestDeltaPathsAgree: the in-process partitioned /delta and the node
// tier's prepare → commit are one stager (stageDelta) entered two ways.
// The same delta sequence applied to (a) an AddPartition server and (b)
// one node-mode server hosting all K shards must leave identical slice
// digests on every shard after every step, and refuse the same inputs by
// the same name without moving any digest.
func TestDeltaPathsAgree(t *testing.T) {
	const k = 4
	f := newPartServer(t, 64, k)
	node := server.New(server.Config{
		Hasher: f.h, Pub: signKey(t).Public(), Policy: accessctl.NewPolicy(f.role),
	})
	t.Cleanup(node.Close)
	for i, sl := range f.set.Slices {
		man := wire.ShardManifest{
			Spec: f.set.Spec, Shard: i, Params: sl.Params, Schema: sl.Schema, Records: len(sl.Recs),
		}
		if err := node.InstallShard(man, sl.Clone()); err != nil {
			t.Fatalf("install shard %d: %v", i, err)
		}
	}
	viaNode := func(d delta.Delta) error {
		resp, err := node.PrepareNodeDelta(d)
		if err != nil {
			return err
		}
		_, err = node.FinishNodeDelta(wire.TxRequest{Relation: d.Relation, Token: resp.Token, Commit: true})
		return err
	}
	digests := func(s *server.Server) []hashx.Digest {
		out := make([]hashx.Digest, k)
		for i := range out {
			sl, ok := s.ShardSlice("Uniform", i)
			if !ok {
				t.Fatalf("shard %d not hosted", i)
			}
			out[i] = partition.SliceDigest(f.h, sl)
		}
		return out
	}
	update := func(rec core.SignedRecord, payload string) delta.Delta {
		return f.mintDelta(t, f.globalIndexOf(t, rec.Key(), rec.Tuple.RowID), []byte(payload))
	}
	ownerDiff := func(mutate func() error) delta.Delta {
		before := f.owner.Clone()
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		return delta.Diff(before, f.owner)
	}
	sl1, sl2 := f.set.Slices[1], f.set.Slices[2]
	insLo, insHi := f.set.Spec.Span(2)

	steps := []struct {
		name string
		d    func() delta.Delta
		want error
	}{
		{"interior update", func() delta.Delta { return update(sl1.Recs[len(sl1.Recs)/2], "interior") }, nil},
		{"boundary-crossing re-sign", func() delta.Delta { return update(sl1.Recs[1], "boundary") }, nil},
		{"insert", func() delta.Delta {
			return ownerDiff(func() error {
				_, err := f.owner.Insert(f.h, signKey(t), relation.Tuple{
					Key: (insLo + insHi) / 2, Attrs: []relation.Value{relation.BytesVal([]byte("inserted"))},
				})
				return err
			})
		}, nil},
		{"delete", func() delta.Delta {
			victim := f.set.Slices[0].Recs[3]
			return ownerDiff(func() error {
				_, err := f.owner.Delete(f.h, signKey(t), victim.Key(), victim.Tuple.RowID)
				return err
			})
		}, nil},
		// Updating the first data record re-signs the left delimiter.
		{"delimiter re-sign", func() delta.Delta { return update(f.owner.Recs[1], "first") }, nil},
		// A legitimate update that loses a signature bit in transit; the
		// owner's master is rolled back since no publisher ever applies it.
		{"tampered op", func() delta.Delta {
			keep := f.owner.Clone()
			d := update(sl2.Recs[len(sl2.Recs)/2], "tampered")
			f.owner = keep
			d.Ops[0].Rec.Sig = append([]byte(nil), d.Ops[0].Rec.Sig...)
			d.Ops[0].Rec.Sig[0] ^= 1
			return d
		}, delta.ErrValidation},
		{"empty batch", func() delta.Delta { return delta.Delta{Relation: "Uniform"} }, delta.ErrEmpty},
	}
	for _, step := range steps {
		d := step.d()
		before := digests(f.s)
		applied := f.s.Stats().DeltasApplied
		_, errA := f.s.ApplyDelta(d)
		errB := viaNode(d)
		if !errors.Is(errA, step.want) || !errors.Is(errB, step.want) {
			t.Fatalf("%s: in-process %v, node %v, want %v on both", step.name, errA, errB, step.want)
		}
		a, b := digests(f.s), digests(node)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: slice digests differ between the two delta paths", step.name)
		}
		if step.want != nil {
			if !reflect.DeepEqual(a, before) {
				t.Fatalf("%s: a refused delta moved a slice", step.name)
			}
			if f.s.Stats().DeltasApplied != applied {
				t.Fatalf("%s: a refused delta was counted as applied", step.name)
			}
		} else if reflect.DeepEqual(a, before) {
			t.Fatalf("%s: an applied delta moved no slice", step.name)
		}
	}
	// What both paths arrived at is a publication the verifier accepts.
	q := engine.Query{Relation: "Uniform"}
	res, err := collect(f.s, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := f.v.VerifyResult(q, f.role, res); err != nil || len(rows) != 64 {
		t.Fatalf("post-sequence query: %d rows, err %v", len(rows), err)
	}
}

// TestPartitionedDistinctAcrossSeams: DISTINCT through Server.QueryStream
// on an AddPartition relation. Every key of the relation is a run of
// three records with identical payloads, so every seam has a duplicate
// run flush against each side of it, and the chunk sizes split the runs.
// The stream must collect into the result a server hosting the same
// relation unpartitioned collects into (a Result carries neither Shard
// tags nor ShardFeet) and pass the shard-aware stream verifier.
func TestPartitionedDistinctAcrossSeams(t *testing.T) {
	const keys = 24
	h := hashx.New()
	rel, err := workload.Uniform(workload.UniformConfig{N: keys, L: 0, U: 1 << 20, PayloadSize: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range append([]relation.Tuple(nil), rel.Tuples...) {
		for i := 0; i < 2; i++ {
			if _, err := rel.Insert(relation.Tuple{Key: tup.Key, Attrs: tup.Attrs}); err != nil {
				t.Fatal(err)
			}
		}
	}
	p, err := core.NewParams(0, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.Build(h, signKey(t), p, rel)
	if err != nil {
		t.Fatal(err)
	}
	plain := newServerWith(t, h, sr.Clone(), 0)
	q := engine.Query{Relation: "Uniform", Distinct: true}
	for _, k := range []int{2, 4} {
		f := newPartServerOver(t, h, sr, k)
		for _, chunkRows := range []int{1, 2, 4, 5} {
			ref, err := plain.QueryStream("all", q, chunkRows)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engine.Collect(ref)
			if err != nil {
				t.Fatal(err)
			}
			st, err := f.s.QueryStream("all", q, chunkRows)
			if err != nil {
				t.Fatal(err)
			}
			sv, err := f.v.NewShardStreamVerifier(f.set.Spec, q, f.role)
			if err != nil {
				t.Fatal(err)
			}
			var chunks []*engine.Chunk
			rows := 0
			for {
				c, err := st.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				released, err := sv.Consume(c)
				if err != nil {
					t.Fatalf("k=%d chunkRows=%d: %v", k, chunkRows, err)
				}
				rows += len(released)
				chunks = append(chunks, c)
			}
			if err := sv.Finish(); err != nil {
				t.Fatalf("k=%d chunkRows=%d: %v", k, chunkRows, err)
			}
			if rows != keys {
				t.Fatalf("k=%d chunkRows=%d: verified %d distinct rows, want %d", k, chunkRows, rows, keys)
			}
			got, err := engine.Collect(&sliceStream{chunks: chunks})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("k=%d chunkRows=%d: partitioned DISTINCT result differs from the unpartitioned one", k, chunkRows)
			}
		}
	}
}

// sliceStream replays drained chunks.
type sliceStream struct {
	chunks []*engine.Chunk
	next   int
}

func (s *sliceStream) Next() (*engine.Chunk, error) {
	if s.next == len(s.chunks) {
		return nil, io.EOF
	}
	s.next++
	return s.chunks[s.next-1], nil
}

// dropAfter is the server's view of a client that disconnects: the
// first frames are delivered, then every write fails.
type dropAfter struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *dropAfter) Write(p []byte) (int, error) {
	if w.writes == 0 {
		return 0, io.ErrClosedPipe
	}
	w.writes--
	return w.ResponseRecorder.Write(p)
}

// TestPartitionedStreamAbandoned: a /stream client that disconnects
// after the first frames of a prefetching fan-out must leave no producer
// goroutine behind — the failed write ends the drain, and the drain's
// Close stops every shard's producer before the handler returns.
func TestPartitionedStreamAbandoned(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("fan-out only prefetches with GOMAXPROCS > 1")
	}
	f := newPartServer(t, 96, 4)
	var body bytes.Buffer
	if err := wire.WriteStreamRequest(&body, &wire.StreamRequest{
		Role: "all", Query: engine.Query{Relation: "Uniform"}, ChunkRows: 2,
	}); err != nil {
		t.Fatal(err)
	}
	handler := f.s.Handler()
	before := runtime.NumGoroutine()
	errsBefore := f.s.Stats().Errors
	// Each frame is a length-prefix write and a body write: header and
	// the first entries chunk get through, the third frame does not.
	w := &dropAfter{ResponseRecorder: httptest.NewRecorder(), writes: 4}
	handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/stream", &body))
	if f.s.Stats().Errors != errsBefore+1 {
		t.Fatal("the broken stream was not counted as an error")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the client left, %d before the request", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
