package verify_test

import (
	"errors"
	"io"
	"sync"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/sig"
	"vcqr/internal/verify"
	"vcqr/internal/workload"
)

var (
	shardKeyOnce sync.Once
	shardKey     *sig.PrivateKey
)

func shardSignKey(t testing.TB) *sig.PrivateKey {
	shardKeyOnce.Do(func() {
		k, err := sig.Generate(sig.DefaultBits, nil)
		if err != nil {
			t.Fatalf("keygen: %v", err)
		}
		shardKey = k
	})
	return shardKey
}

// shardFix is a partitioned publication plus everything needed to stream
// and verify against it.
type shardFix struct {
	sr   *core.SignedRelation
	set  *partition.Set
	pub  *engine.Publisher
	v    *verify.Verifier
	role accessctl.Role
	q    engine.Query
}

func newShardFix(t *testing.T, n, k int) *shardFix {
	t.Helper()
	key := shardSignKey(t)
	h := hashx.New()
	rel, err := workload.Uniform(workload.UniformConfig{
		N: n, L: 0, U: 1 << 20, PayloadSize: 8, Seed: int64(31*n + k),
	})
	if err != nil {
		t.Fatal(err)
	}
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
	for _, sl := range set.Slices {
		if err := sl.BuildAggIndex(h, key.Public()); err != nil {
			t.Fatal(err)
		}
	}
	role := accessctl.Role{Name: "all"}
	return &shardFix{
		sr:   sr,
		set:  set,
		pub:  engine.NewPublisher(h, key.Public(), accessctl.NewPolicy(role)),
		v:    verify.New(h, key.Public(), sr.Params, sr.Schema),
		role: role,
		q:    engine.Query{Relation: sr.Schema.Name},
	}
}

// chunks produces the honest fan-out chunk sequence for f.q.
func (f *shardFix) chunks(t *testing.T, chunkRows int) []*engine.Chunk {
	t.Helper()
	eff, err := engine.EffectiveQuery(f.sr.Params, f.sr.Schema, f.role, f.q)
	if err != nil {
		t.Fatal(err)
	}
	sub := f.set.Spec.Decompose(eff.KeyLo, eff.KeyHi)
	slices := make([]engine.ShardSlice, len(sub))
	for i, s := range sub {
		slices[i] = engine.ShardSlice{Shard: s.Shard, SR: f.set.Slices[s.Shard], Lo: s.Lo, Hi: s.Hi}
	}
	st, err := f.pub.FanoutStream(f.role, eff, slices, nil, engine.StreamOpts{ChunkRows: chunkRows})
	if err != nil {
		t.Fatal(err)
	}
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

// verifyChunks feeds a chunk sequence to a fresh shard verifier.
func (f *shardFix) verifyChunks(t *testing.T, chunks []*engine.Chunk) (int, error) {
	t.Helper()
	sv, err := f.v.NewShardStreamVerifier(f.set.Spec, f.q, f.role)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, c := range chunks {
		released, err := sv.Consume(c)
		if err != nil {
			return rows, err
		}
		rows += len(released)
	}
	return rows, sv.Finish()
}

// renumber restamps Seq contiguously — the smart attacker who fixes the
// framing after dropping or reordering content.
func renumber(chunks []*engine.Chunk) []*engine.Chunk {
	out := make([]*engine.Chunk, len(chunks))
	for i, c := range chunks {
		cp := *c
		cp.Seq = uint64(i)
		out[i] = &cp
	}
	return out
}

func TestShardStreamHappyPath(t *testing.T) {
	f := newShardFix(t, 96, 4)
	chunks := f.chunks(t, 8)
	rows, err := f.verifyChunks(t, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if rows != f.sr.Len() {
		t.Fatalf("verified %d rows, want %d", rows, f.sr.Len())
	}
}

// dropShard removes every chunk tagged with the given shard (keeping
// header/footer, which the honest producer tags with first/last shard).
func dropShard(chunks []*engine.Chunk, shard int) []*engine.Chunk {
	var out []*engine.Chunk
	for _, c := range chunks {
		if c.Type == engine.ChunkEntries && c.Shard == shard {
			continue
		}
		out = append(out, c)
	}
	return out
}

func TestShardStreamDropInteriorNaive(t *testing.T) {
	f := newShardFix(t, 96, 4)
	interior := f.set.Spec.K() / 2
	_, err := f.verifyChunks(t, dropShard(f.chunks(t, 8), interior))
	if !errors.Is(err, verify.ErrChunkSequence) {
		t.Fatalf("naive interior drop: got %v, want ErrChunkSequence", err)
	}
}

func TestShardStreamDropInteriorRenumbered(t *testing.T) {
	f := newShardFix(t, 96, 4)
	interior := f.set.Spec.K() / 2
	_, err := f.verifyChunks(t, renumber(dropShard(f.chunks(t, 8), interior)))
	if !errors.Is(err, verify.ErrShardSequence) {
		t.Fatalf("renumbered interior drop: got %v, want ErrShardSequence", err)
	}
}

func TestShardStreamReorderShards(t *testing.T) {
	f := newShardFix(t, 96, 4)
	chunks := f.chunks(t, 64) // few chunks: one entries chunk per shard
	// Swap the entry runs of shards 1 and 2 wholesale.
	var a, b int = -1, -1
	for i, c := range chunks {
		if c.Type != engine.ChunkEntries {
			continue
		}
		if c.Shard == 1 && a < 0 {
			a = i
		}
		if c.Shard == 2 && b < 0 {
			b = i
		}
	}
	if a < 0 || b < 0 {
		t.Fatal("fixture did not produce one chunk per shard")
	}
	chunks[a], chunks[b] = chunks[b], chunks[a]
	_, err := f.verifyChunks(t, renumber(chunks))
	if !errors.Is(err, verify.ErrShardSequence) {
		t.Fatalf("reordered shards: got %v, want ErrShardSequence", err)
	}
}

func TestShardStreamRetaggedChunks(t *testing.T) {
	f := newShardFix(t, 96, 4)
	chunks := f.chunks(t, 8)
	// Retag one of shard 2's chunks as shard 1: the tag walk stays legal
	// only until the key-span check sees keys outside shard 1's span.
	for _, c := range chunks {
		if c.Type == engine.ChunkEntries && c.Shard == 2 {
			c.Shard = 1
			break
		}
	}
	_, err := f.verifyChunks(t, chunks)
	if !errors.Is(err, verify.ErrShardSpan) && !errors.Is(err, verify.ErrShardSequence) {
		t.Fatalf("retagged chunk: got %v, want ErrShardSpan or ErrShardSequence", err)
	}
}

func TestShardStreamTruncatedTail(t *testing.T) {
	f := newShardFix(t, 96, 4)
	chunks := f.chunks(t, 8)
	_, err := f.verifyChunks(t, chunks[:len(chunks)-1]) // drop the footer
	if !errors.Is(err, verify.ErrStreamTruncated) {
		t.Fatalf("truncated stream: got %v, want ErrStreamTruncated", err)
	}
}

func TestShardStreamDropTrailingShard(t *testing.T) {
	f := newShardFix(t, 96, 4)
	last := f.set.Spec.K() - 1
	chunks := renumber(dropShard(f.chunks(t, 8), last))
	_, err := f.verifyChunks(t, chunks)
	// The tag walk allows a legitimately empty last shard, so the drop is
	// caught by the footer: continuity accounting first, chain otherwise.
	if !errors.Is(err, verify.ErrShardContinuity) && !errors.Is(err, verify.ErrSignature) {
		t.Fatalf("dropped trailing shard: got %v, want ErrShardContinuity or ErrSignature", err)
	}
}

func TestShardStreamLyingFooterAccounting(t *testing.T) {
	f := newShardFix(t, 96, 4)
	chunks := f.chunks(t, 8)
	footer := chunks[len(chunks)-1]
	footer.ShardFeet[1].Entries++
	_, err := f.verifyChunks(t, chunks)
	if !errors.Is(err, verify.ErrShardContinuity) {
		t.Fatalf("lying footer: got %v, want ErrShardContinuity", err)
	}
}

func TestShardStreamMissingFooterAccounting(t *testing.T) {
	f := newShardFix(t, 96, 4)
	chunks := f.chunks(t, 8)
	chunks[len(chunks)-1].ShardFeet = nil
	_, err := f.verifyChunks(t, chunks)
	if !errors.Is(err, verify.ErrShardContinuity) {
		t.Fatalf("missing footer accounting: got %v, want ErrShardContinuity", err)
	}
}

// TestShardStreamSingleShardCover: a query entirely inside one shard
// verifies with a one-element cover.
func TestShardStreamSingleShardCover(t *testing.T) {
	f := newShardFix(t, 96, 4)
	sl := f.set.Slices[2]
	f.q = engine.Query{
		Relation: f.sr.Schema.Name,
		KeyLo:    sl.Recs[1].Key(),
		KeyHi:    sl.Recs[len(sl.Recs)-2].Key(),
	}
	rows, err := f.verifyChunks(t, f.chunks(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if rows != len(sl.Recs)-2 {
		t.Fatalf("verified %d rows, want %d", rows, len(sl.Recs)-2)
	}
}
