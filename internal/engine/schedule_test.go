package engine_test

import (
	"fmt"
	"io"
	"slices"
	"testing"

	"vcqr/internal/engine"
	"vcqr/internal/relation"
	"vcqr/internal/workload"
)

// TestChunkSchedule pins the publisher's one chunk schedule: the first
// covering shard's first entries chunk carries at most
// min(n, FirstChunkRows) entries and every later chunk at most n. So
// ChunkResult, ExecuteStream (recycling or not) and a K = 1 fan-out emit
// the same entries-chunk lengths, and a K = 4 fan-out, whose chunks end
// at the shard seams, follows the same schedule over each covering
// shard's run, only the first of which opens short.
func TestChunkSchedule(t *testing.T) {
	// 600 records with distinct keys 10, 20, …, 6000, so a key range
	// selects exactly the records wanted; four shards of 150.
	rel, err := relation.New(workload.UniformSchema(), 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 600; i++ {
		if _, err := rel.Insert(relation.Tuple{Key: uint64(10 * i), Attrs: []relation.Value{relation.BytesVal([]byte{byte(i)})}}); err != nil {
			t.Fatal(err)
		}
	}
	e := newFanoutEnvOver(t, rel, 4)
	if err := e.pub.AddRelation(e.sr, false); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 1, 7, 8, 9, 65, 600} {
		// Start inside shard 0, so a result of 65 crosses the seam at 150.
		first := 120
		if size == 600 {
			first = 1
		}
		q := engine.Query{Relation: e.sr.Schema.Name, KeyLo: uint64(10*first + 5), KeyHi: uint64(10*first + 5)}
		if size > 0 {
			q.KeyLo, q.KeyHi = uint64(10*first), uint64(10*(first+size-1))
		}
		res, err := e.pub.Execute("all", q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.VO.Entries) != size {
			t.Fatalf("query %+v covers %d entries, want %d", q, len(res.VO.Entries), size)
		}
		for _, n := range []int{1, 2, 8, 9, 64, 256} {
			t.Run(fmt.Sprintf("size=%d/n=%d", size, n), func(t *testing.T) {
				want := schedule([]int{size}, n)
				if got := entryLens(engine.ChunkResult(res, n)); !slices.Equal(got, want) {
					t.Fatalf("ChunkResult: entries chunks %v, want %v", got, want)
				}
				for _, reuse := range []bool{false, true} {
					st, err := e.pub.ExecuteStream("all", q, engine.StreamOpts{ChunkRows: n, ReuseChunks: reuse})
					if err != nil {
						t.Fatal(err)
					}
					if got, _ := drainLens(t, st); !slices.Equal(got, want) {
						t.Fatalf("ExecuteStream (reuse %v): entries chunks %v, want %v", reuse, got, want)
					}
				}
				eff, err := engine.EffectiveQuery(e.sr.Params, e.sr.Schema, e.role, q)
				if err != nil {
					t.Fatal(err)
				}
				one, err := e.pub.FanoutStream(e.role, eff, []engine.ShardSlice{{SR: e.sr, Lo: eff.KeyLo, Hi: eff.KeyHi}}, nil, engine.StreamOpts{ChunkRows: n})
				if err != nil {
					t.Fatal(err)
				}
				if got, _ := drainLens(t, one); !slices.Equal(got, want) {
					t.Fatalf("K = 1 fan-out: entries chunks %v, want %v", got, want)
				}
				got, runs := drainLens(t, e.fanout(t, q, engine.StreamOpts{ChunkRows: n}))
				if want := schedule(runs, n); !slices.Equal(got, want) {
					t.Fatalf("K = 4 fan-out over runs %v: entries chunks %v, want %v", runs, got, want)
				}
			})
		}
	}
	// A budget above MaxChunkRows is clamped, ChunkResult's as a stream's:
	// no chunk it cuts carries more than a publisher sends. Cutting needs
	// no crypto, so a long result of blank entries shows it.
	long := &engine.Result{VO: engine.RangeVO{Entries: make([]engine.VOEntry, 2*engine.MaxChunkRows+3)}}
	for _, n := range []int{engine.MaxChunkRows, engine.MaxChunkRows + 1, 5000} {
		want := schedule([]int{len(long.VO.Entries)}, n)
		if got := entryLens(engine.ChunkResult(long, n)); !slices.Equal(got, want) || slices.Max(got) != engine.MaxChunkRows {
			t.Fatalf("ChunkResult of %d entries at n=%d: entries chunks %v, want %v", len(long.VO.Entries), n, got, want)
		}
	}
}

// schedule is the chunk schedule over covering-shard runs of the given
// lengths at budget n, clamped to MaxChunkRows: each run in chunks of n,
// the first run opening with at most FirstChunkRows.
func schedule(runs []int, n int) []int {
	n = min(n, engine.MaxChunkRows)
	var out []int
	for i, run := range runs {
		for left := run; left > 0; {
			c := min(n, left)
			if i == 0 && left == run {
				c = min(c, engine.FirstChunkRows)
			}
			out = append(out, c)
			left -= c
		}
	}
	return out
}

// entryLens lists the entries-chunk lengths of a chunk sequence.
func entryLens(chunks []*engine.Chunk) []int {
	var out []int
	for _, c := range chunks {
		if c.Type == engine.ChunkEntries {
			out = append(out, len(c.Entries))
		}
	}
	return out
}

// drainLens drains a stream and returns its entries-chunk lengths, each
// read before the next Next may recycle the chunk, and the footer's
// per-shard entry counts.
func drainLens(t *testing.T, st engine.ResultStream) (lens, runs []int) {
	t.Helper()
	for {
		c, err := st.Next()
		if err == io.EOF {
			return lens, runs
		}
		if err != nil {
			t.Fatal(err)
		}
		switch c.Type {
		case engine.ChunkEntries:
			lens = append(lens, len(c.Entries))
		case engine.ChunkFooter:
			for _, f := range c.ShardFeet {
				runs = append(runs, int(f.Entries))
			}
		}
	}
}
