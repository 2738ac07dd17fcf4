package engine_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/sig"
	"vcqr/internal/wire"
)

// partials builds one ShardPartial feed per covering shard of q — the
// node half of a distributed fan-out, run in-process.
func (e *fanoutEnv) partials(t *testing.T, q engine.Query, opts engine.StreamOpts) (engine.Query, []engine.ShardFeed, engine.PrevG) {
	t.Helper()
	eff, err := engine.EffectiveQuery(e.sr.Params, e.sr.Schema, e.role, q)
	if err != nil {
		t.Fatal(err)
	}
	sub := e.set.Spec.Decompose(eff.KeyLo, eff.KeyHi)
	feeds := make([]engine.ShardFeed, len(sub))
	for i, s := range sub {
		sp, err := e.pub.ShardPartial(e.set.Slices[s.Shard], "all", q, s.Shard,
			s.Lo, s.Hi, i == 0, i == len(sub)-1, opts)
		if err != nil {
			t.Fatal(err)
		}
		feeds[i] = sp
	}
	var prevG engine.PrevG
	if first := sub[0].Shard; first > 0 {
		prevG = func() (hashx.Digest, error) {
			prev := e.set.Slices[first-1]
			return prev.Recs[len(prev.Recs)-3].G, nil
		}
	}
	return eff, feeds, prevG
}

// mergeSequential is MergeShards over bare ShardPartial feeds: the
// strictly sequential production FanoutStream's prefetching is compared
// against.
func (e *fanoutEnv) mergeSequential(t *testing.T, q engine.Query, opts engine.StreamOpts) engine.ResultStream {
	t.Helper()
	eff, feeds, prevG := e.partials(t, q, opts)
	st, err := engine.MergeShards(streamSignKey(t).Public(), true, eff, feeds, prevG)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// frameChunks encodes a drained stream chunk by chunk as the wire frames
// it, so equality here is frame-level byte identity.
func frameChunks(t *testing.T, st engine.ResultStream) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		c, err := st.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := wire.WriteChunkFrame(&buf, c); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
}

// TestMergeShardsByteIdentical pins the fan-out invariant at the engine
// seam: FanoutStream (prefetching producers behind the merger) must emit
// a chunk sequence byte-identical (wire frame bytes) to MergeShards over
// bare sequential ShardPartial feeds — what a coordinator assembles from
// its nodes — for full-range, sub-range and single-shard covers.
func TestMergeShardsByteIdentical(t *testing.T) {
	e := newFanoutEnv(t, 120, 4)
	queries := []engine.Query{
		{Relation: e.sr.Schema.Name}, // full range, all shards
		{Relation: e.sr.Schema.Name, KeyLo: e.sr.Recs[10].Key(), KeyHi: e.sr.Recs[110].Key()},
		{Relation: e.sr.Schema.Name, KeyLo: e.sr.Recs[40].Key(), KeyHi: e.sr.Recs[40].Key()},
	}
	for i, q := range queries {
		opts := engine.StreamOpts{ChunkRows: 8}
		want := frameChunks(t, e.fanout(t, q, opts))
		got := frameChunks(t, e.mergeSequential(t, q, opts))
		if len(want) != len(got) {
			t.Fatalf("query %d: fan-out emitted %d chunks, merge %d", i, len(want), len(got))
		}
		for j := range want {
			if !bytes.Equal(want[j], got[j]) {
				t.Fatalf("query %d: chunk %d differs between fan-out and merge", i, j)
			}
		}
	}
}

// TestMergeShardsEmptyRange drives the globally empty corner, including
// the hand-off position where the predecessor digest must be resolved
// from the preceding shard via the PrevG callback.
func TestMergeShardsEmptyRange(t *testing.T) {
	e := newFanoutEnv(t, 60, 3)

	// An empty range that starts exactly at shard 1's span start: the
	// predecessor is slice 1's left context, so PredPrevG comes from
	// shard 0 through PrevG.
	spanLo, _ := e.set.Spec.Span(1)
	firstOwned := e.set.Slices[1].Recs[1].Key()
	if firstOwned <= spanLo {
		t.Skip("no key gap at the shard 1 hand-off for this seed")
	}
	q := engine.Query{Relation: e.sr.Schema.Name, KeyLo: spanLo, KeyHi: firstOwned - 1}

	opts := engine.StreamOpts{ChunkRows: 8}
	want := frameChunks(t, e.fanout(t, q, opts))
	got := frameChunks(t, e.mergeSequential(t, q, opts))
	if len(want) != len(got) {
		t.Fatalf("fan-out emitted %d chunks, merge %d", len(want), len(got))
	}
	for j := range want {
		if !bytes.Equal(want[j], got[j]) {
			t.Fatalf("chunk %d differs between fan-out and merge", j)
		}
	}

	// The merged empty result must verify end to end.
	res, err := engine.Collect(e.mergeSequential(t, q, opts))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.v.VerifyResult(q, e.role, res)
	if err != nil {
		t.Fatalf("merged empty result rejected: %v", err)
	}
	if len(rows) != 0 {
		t.Fatalf("empty range verified %d rows", len(rows))
	}
}

// TestShardPartialRejectsMisuse: sub-ranges outside the effective range
// must be refused at construction. (DISTINCT no longer is: the verifier
// elides duplicates, so a shard partial needs nothing from its
// neighbours to serve one.)
func TestShardPartialRejectsMisuse(t *testing.T) {
	e := newFanoutEnv(t, 30, 2)
	q := engine.Query{Relation: e.sr.Schema.Name}
	eff, err := engine.EffectiveQuery(e.sr.Params, e.sr.Schema, e.role, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.pub.ShardPartial(e.set.Slices[0], "all", q, 0, eff.KeyLo, eff.KeyHi+1, true, true, engine.StreamOpts{}); err == nil {
		t.Fatal("sub-range beyond the effective range accepted")
	}
}

// TestShardPartialRefusesUnindexedSlice: condensed signatures come from
// the slice's crypto index alone, so a slice with none, one out of step
// with its records and one built for another key are each refused with
// core.ErrAggIndex — by ShardPartial and by the K = 1 stream over the
// whole relation — never answered by a slower path.
func TestShardPartialRefusesUnindexedSlice(t *testing.T) {
	e := newFanoutEnv(t, 30, 2)
	q := engine.Query{Relation: e.sr.Schema.Name}
	eff, err := engine.EffectiveQuery(e.sr.Params, e.sr.Schema, e.role, q)
	if err != nil {
		t.Fatal(err)
	}
	sub := e.set.Spec.Decompose(eff.KeyLo, eff.KeyHi)
	key := streamSignKey(t).Public()
	unindexed := func(sr *core.SignedRelation) map[string]*core.SignedRelation {
		stale := sr.Clone()
		stale.Recs = append(stale.Recs[:2:2], stale.Recs[3:]...) // a record gone behind the index's back
		other := sr.Clone()
		if err := other.BuildAggIndex(e.h, &sig.PublicKey{N: key.N, E: 3}); err != nil {
			t.Fatal(err)
		}
		return map[string]*core.SignedRelation{
			"none":        {Params: sr.Params, Schema: sr.Schema, Recs: sr.Recs},
			"stale":       stale,
			"another key": other,
		}
	}
	for name, sl := range unindexed(e.set.Slices[sub[0].Shard]) {
		if _, err := e.pub.ShardPartial(sl, "all", q, sub[0].Shard, sub[0].Lo, sub[0].Hi, true, len(sub) == 1, engine.StreamOpts{}); !errors.Is(err, core.ErrAggIndex) {
			t.Errorf("ShardPartial over a slice with index %s: %v, want core.ErrAggIndex", name, err)
		}
	}
	for name, sr := range unindexed(e.sr) {
		if _, err := e.pub.ExecuteStreamOn(sr, "all", q, engine.StreamOpts{}); !errors.Is(err, core.ErrAggIndex) {
			t.Errorf("ExecuteStreamOn a relation with index %s: %v, want core.ErrAggIndex", name, err)
		}
	}
}

// TestMergeShardsServesOnlyCondensed: a merge asked for anything but the
// condensed signature is refused by name.
func TestMergeShardsServesOnlyCondensed(t *testing.T) {
	e := newFanoutEnv(t, 30, 2)
	eff, feeds, prevG := e.partials(t, engine.Query{Relation: e.sr.Schema.Name}, engine.StreamOpts{})
	if _, err := engine.MergeShards(streamSignKey(t).Public(), false, eff, feeds, prevG); !errors.Is(err, engine.ErrSignatureMode) {
		t.Fatalf("MergeShards(aggregate = false): %v, want engine.ErrSignatureMode", err)
	}
}

var _ engine.ShardFeed = (*engine.ShardPartial)(nil)
