package engine_test

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/leakcheck"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/verify"
	"vcqr/internal/workload"
)

// fanoutEnv builds one signed relation, a k-way split of it, and the
// publisher/verifier pair.
type fanoutEnv struct {
	h    *hashx.Hasher
	sr   *core.SignedRelation
	set  *partition.Set
	pub  *engine.Publisher
	v    *verify.Verifier
	role accessctl.Role
}

func newFanoutEnv(t *testing.T, n, k int) *fanoutEnv {
	t.Helper()
	rel, err := workload.Uniform(workload.UniformConfig{
		N: n, L: 0, U: 1 << 20, PayloadSize: 8, Seed: int64(n + k),
	})
	if err != nil {
		t.Fatal(err)
	}
	return newFanoutEnvOver(t, rel, k)
}

// newFanoutEnvOver signs rel (domain (0, 1<<20)) and splits it k ways.
func newFanoutEnvOver(t *testing.T, rel *relation.Relation, k int) *fanoutEnv {
	t.Helper()
	key := streamSignKey(t)
	h := hashx.New()
	p, err := core.NewParams(0, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.Build(h, key, p, rel)
	if err != nil {
		t.Fatal(err)
	}
	set, err := partition.Split(sr, k)
	if err != nil {
		t.Fatal(err)
	}
	// Every slice a query reaches carries its crypto index, as a
	// publication gives it.
	for _, sl := range append([]*core.SignedRelation{sr}, set.Slices...) {
		if err := sl.BuildAggIndex(h, key.Public()); err != nil {
			t.Fatal(err)
		}
	}
	role := accessctl.Role{Name: "all"}
	pub := engine.NewPublisher(h, key.Public(), accessctl.NewPolicy(role))
	return &fanoutEnv{
		h:    h,
		sr:   sr,
		set:  set,
		pub:  pub,
		v:    verify.New(h, key.Public(), sr.Params, sr.Schema),
		role: role,
	}
}

// fanout executes q over the covering shards of the env's partition.
func (e *fanoutEnv) fanout(t *testing.T, q engine.Query, opts engine.StreamOpts) engine.ResultStream {
	t.Helper()
	eff, err := engine.EffectiveQuery(e.sr.Params, e.sr.Schema, e.role, q)
	if err != nil {
		t.Fatal(err)
	}
	sub := e.set.Spec.Decompose(eff.KeyLo, eff.KeyHi)
	slices := make([]engine.ShardSlice, len(sub))
	for i, s := range sub {
		slices[i] = engine.ShardSlice{Shard: s.Shard, SR: e.set.Slices[s.Shard], Lo: s.Lo, Hi: s.Hi}
	}
	first := sub[0].Shard
	var prev engine.PrevPin
	if first > 0 {
		prev = func() (*core.SignedRelation, bool) { return e.set.Slices[first-1], true }
	}
	st, err := e.pub.FanoutStream(e.role, eff, slices, prev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFanoutMatchesUnpartitioned is the core soundness check: a
// cross-shard fan-out stream must collect into a result byte-identical
// to the unpartitioned execution, and must pass the *unmodified*
// whole-result verifier — partitioning is invisible to the chain. At
// K = 1 the frames themselves are compared: ExecuteStream is the K = 1
// merge, so the two streams agree chunk for chunk, footer ShardFeet
// {0, n} included.
func TestFanoutMatchesUnpartitioned(t *testing.T) {
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			e := newFanoutEnv(t, 120, k)
			if err := e.pub.AddRelation(e.sr, false); err != nil {
				t.Fatal(err)
			}
			lo := e.sr.Recs[10].Key()
			hi := e.sr.Recs[110].Key()
			q := engine.Query{Relation: e.sr.Schema.Name, KeyLo: lo, KeyHi: hi}

			want, err := e.pub.Execute("all", q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := engine.Collect(e.fanout(t, q, engine.StreamOpts{}))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.VO.AggSig, got.VO.AggSig) {
				t.Fatal("fan-out aggregate signature differs from unpartitioned execution")
			}
			if len(want.VO.Entries) != len(got.VO.Entries) {
				t.Fatalf("fan-out covered %d entries, unpartitioned %d", len(got.VO.Entries), len(want.VO.Entries))
			}
			rows, err := e.v.VerifyResult(q, e.role, got)
			if err != nil {
				t.Fatalf("fan-out result rejected by the unmodified verifier: %v", err)
			}
			wantRows, err := e.v.VerifyResult(q, e.role, want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rows, wantRows) {
				t.Fatal("verified rows differ")
			}
			if k > 1 {
				return
			}
			opts := engine.StreamOpts{ChunkRows: 16}
			plain, err := e.pub.ExecuteStream("all", q, opts)
			if err != nil {
				t.Fatal(err)
			}
			a, b := drainChunks(t, plain), drainChunks(t, e.fanout(t, q, opts))
			if len(a) != len(b) {
				t.Fatalf("ExecuteStream emitted %d chunks, the K = 1 merge %d", len(a), len(b))
			}
			for i := range a {
				if !reflect.DeepEqual(a[i], b[i]) {
					t.Fatalf("chunk %d (%v) differs between ExecuteStream and the K = 1 merge", i, a[i].Type)
				}
			}
			feet := []engine.ShardFoot{{Shard: 0, Entries: uint64(len(want.VO.Entries))}}
			if foot := a[len(a)-1]; !reflect.DeepEqual(foot.ShardFeet, feet) {
				t.Fatalf("ExecuteStream footer ShardFeet %v, want %v", foot.ShardFeet, feet)
			}
		})
	}
}

// drainChunks reads a stream to its end.
func drainChunks(t *testing.T, st engine.ResultStream) []*engine.Chunk {
	t.Helper()
	var out []*engine.Chunk
	for {
		c, err := st.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
}

// TestFanoutParallelDeterminism: FanoutStream's prefetching producers
// must emit the same chunk sequence (up to Seq/Shard stamps it also
// emits) and the same combined signature as MergeShards draining bare,
// strictly sequential ShardPartial feeds.
func TestFanoutParallelDeterminism(t *testing.T) {
	needParallel(t)
	e := newFanoutEnv(t, 160, 8)
	q := engine.Query{Relation: e.sr.Schema.Name}

	opts := engine.StreamOpts{ChunkRows: 16}
	seqChunks := drainChunks(t, e.mergeSequential(t, q, opts))
	parChunks := drainChunks(t, e.fanout(t, q, opts))
	if len(seqChunks) != len(parChunks) {
		t.Fatalf("sequential emitted %d chunks, parallel %d", len(seqChunks), len(parChunks))
	}
	for i := range seqChunks {
		if !reflect.DeepEqual(seqChunks[i], parChunks[i]) {
			t.Fatalf("chunk %d differs between sequential and parallel", i)
		}
	}
}

// needParallel skips a test about prefetching production where
// FanoutStream would not select it.
func needParallel(t *testing.T) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("FanoutStream only prefetches with GOMAXPROCS > 1")
	}
}

// TestFanoutStreamVerifies drives a ≥3-shard stream through the
// incremental stream verifier chunk by chunk.
func TestFanoutStreamVerifies(t *testing.T) {
	e := newFanoutEnv(t, 96, 4)
	q := engine.Query{Relation: e.sr.Schema.Name} // full range: covers all 4 shards
	st := e.fanout(t, q, engine.StreamOpts{ChunkRows: 8})
	sv := e.v.NewStreamVerifier(q, e.role)
	rows := 0
	shards := map[int]bool{}
	for {
		c, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		shards[c.Shard] = true
		released, err := sv.Consume(c)
		if err != nil {
			t.Fatal(err)
		}
		rows += len(released)
	}
	if err := sv.Finish(); err != nil {
		t.Fatal(err)
	}
	if rows != e.sr.Len() {
		t.Fatalf("verified %d rows, want %d", rows, e.sr.Len())
	}
	if len(shards) < 4 {
		t.Fatalf("stream touched %d shards, want 4", len(shards))
	}
}

// TestFanoutEmptyRanges exercises the empty-result corner in all three
// predecessor positions: interior to a shard, at a hand-off (pred is the
// first slice's context, needing the lazy prev pin), and at the start of
// the domain (pred is the left delimiter).
func TestFanoutEmptyRanges(t *testing.T) {
	e := newFanoutEnv(t, 60, 3)
	verifyEmpty := func(q engine.Query) {
		t.Helper()
		res, err := engine.Collect(e.fanout(t, q, engine.StreamOpts{}))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := e.v.VerifyResult(q, e.role, res)
		if err != nil {
			t.Fatalf("empty result rejected: %v", err)
		}
		if len(rows) != 0 {
			t.Fatalf("expected empty result, got %d rows", len(rows))
		}
	}

	// Find a gap interior to shard 1 and the gap across the 0-1 hand-off.
	sl := e.set.Slices[1]
	mid := len(sl.Recs) / 2
	if sl.Recs[mid+1].Key() > sl.Recs[mid].Key()+1 {
		verifyEmpty(engine.Query{Relation: e.sr.Schema.Name,
			KeyLo: sl.Recs[mid].Key() + 1, KeyHi: sl.Recs[mid+1].Key() - 1})
	}
	// Hand-off gap: keys strictly between shard 0's last owned record and
	// shard 1's first owned record; pred is shard 1's left context.
	lastOwned := e.set.Slices[0].Recs[len(e.set.Slices[0].Recs)-2].Key()
	firstOwned := e.set.Slices[1].Recs[1].Key()
	if firstOwned > lastOwned+1 {
		verifyEmpty(engine.Query{Relation: e.sr.Schema.Name, KeyLo: lastOwned + 1, KeyHi: firstOwned - 1})
	}
	// Domain start: pred is the global left delimiter.
	first := e.sr.Recs[1].Key()
	if first > 1 {
		verifyEmpty(engine.Query{Relation: e.sr.Schema.Name, KeyLo: 1, KeyHi: first - 1})
	}
}

// TestFanoutShardFeet: the footer must account every covering shard's
// entry contribution.
func TestFanoutShardFeet(t *testing.T) {
	e := newFanoutEnv(t, 80, 4)
	q := engine.Query{Relation: e.sr.Schema.Name}
	st := e.fanout(t, q, engine.StreamOpts{})
	var footer *engine.Chunk
	perShard := map[int]uint64{}
	for {
		c, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if c.Type == engine.ChunkEntries {
			perShard[c.Shard] += uint64(len(c.Entries))
		}
		if c.Type == engine.ChunkFooter {
			footer = c
		}
	}
	if footer == nil || len(footer.ShardFeet) != 4 {
		t.Fatalf("footer shard accounting missing: %+v", footer)
	}
	total := uint64(0)
	for _, f := range footer.ShardFeet {
		if perShard[f.Shard] != f.Entries {
			t.Fatalf("shard %d: footer claims %d entries, observed %d", f.Shard, f.Entries, perShard[f.Shard])
		}
		total += f.Entries
	}
	if total != uint64(e.sr.Len()) {
		t.Fatalf("footer accounts %d entries, want %d", total, e.sr.Len())
	}
}

// TestFanoutClose: abandoning a prefetching stream after its first
// entries chunk must stop every producer — Close returns once they have
// exited — and later Next calls fail instead of hanging.
func TestFanoutClose(t *testing.T) {
	needParallel(t)
	e := newFanoutEnv(t, 160, 8)
	q := engine.Query{Relation: e.sr.Schema.Name}
	st := e.fanout(t, q, engine.StreamOpts{ChunkRows: 4})
	if len(leakcheck.Settle(0)) == 0 {
		t.Fatal("an 8-shard cover started no producers")
	}
	for i := 0; i < 2; i++ { // header, first entries chunk
		if _, err := st.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if c, ok := st.(io.Closer); ok {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		t.Fatal("fan-out stream does not implement io.Closer")
	}
	if left := leakcheck.Settle(leakcheck.Grace); len(left) > 0 {
		t.Fatalf("%d goroutines outlived Close:\n\n%s", len(left), strings.Join(left, "\n\n"))
	}
	if _, err := st.Next(); err == nil {
		t.Fatal("Next succeeded on a closed stream")
	}
}

// TestFanoutDistinctAcrossSeams: under DISTINCT the shards ship every
// record and the verifier elides duplicates, across seams too. In the
// relation here every key is a run of three records that project
// identically, so each seam has a duplicate run ending flush against it
// on the left and another starting flush against it on the right
// (partition.Split keeps equal keys on one side), and the chunk sizes
// split the runs. The merged stream must collect into exactly what the
// unpartitioned stream collects into — a Result carries neither Shard
// tags nor ShardFeet — and pass the shard-aware stream verifier.
func TestFanoutDistinctAcrossSeams(t *testing.T) {
	const keys = 24
	rel, err := workload.Uniform(workload.UniformConfig{N: keys, L: 0, U: 1 << 20, PayloadSize: 8, Seed: 5})
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
	for _, k := range []int{2, 4} {
		e := newFanoutEnvOver(t, rel, k)
		if err := e.pub.AddRelation(e.sr, false); err != nil {
			t.Fatal(err)
		}
		q := engine.Query{Relation: e.sr.Schema.Name, Distinct: true}
		for _, chunkRows := range []int{1, 2, 4, 5} {
			opts := engine.StreamOpts{ChunkRows: chunkRows}
			plain, err := e.pub.ExecuteStream("all", q, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engine.Collect(plain)
			if err != nil {
				t.Fatal(err)
			}
			sv, err := e.v.NewShardStreamVerifier(e.set.Spec, q, e.role)
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			got, err := engine.Collect(tapStream{e.fanout(t, q, opts), func(c *engine.Chunk) {
				released, err := sv.Consume(c)
				if err != nil {
					t.Fatalf("k=%d chunkRows=%d: %v", k, chunkRows, err)
				}
				rows += len(released)
			}})
			if err != nil {
				t.Fatal(err)
			}
			if err := sv.Finish(); err != nil {
				t.Fatalf("k=%d chunkRows=%d: %v", k, chunkRows, err)
			}
			if rows != keys {
				t.Fatalf("k=%d chunkRows=%d: verified %d distinct rows, want %d", k, chunkRows, rows, keys)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("k=%d chunkRows=%d: merged DISTINCT result differs from the unpartitioned one", k, chunkRows)
			}
		}
	}
}

// tapStream shows every chunk to fn on its way to the consumer.
type tapStream struct {
	st engine.ResultStream
	fn func(*engine.Chunk)
}

func (s tapStream) Next() (*engine.Chunk, error) {
	c, err := s.st.Next()
	if err == nil {
		s.fn(c)
	}
	return c, err
}

// TestFanoutTiling: sub-ranges that do not tile the effective range are
// rejected up front.
func TestFanoutTiling(t *testing.T) {
	e := newFanoutEnv(t, 40, 2)
	eff, err := engine.EffectiveQuery(e.sr.Params, e.sr.Schema, e.role, engine.Query{Relation: e.sr.Schema.Name})
	if err != nil {
		t.Fatal(err)
	}
	sub := e.set.Spec.Decompose(eff.KeyLo, eff.KeyHi)
	if len(sub) != 2 {
		t.Fatalf("want 2 sub-ranges, got %d", len(sub))
	}
	bad := []engine.ShardSlice{{Shard: 1, SR: e.set.Slices[1], Lo: sub[1].Lo, Hi: sub[1].Hi}}
	if _, err := e.pub.FanoutStream(e.role, eff, bad, nil, engine.StreamOpts{}); err == nil {
		t.Fatal("non-tiling shard set accepted")
	}
}
