package wire_test

import (
	"bytes"
	"io"
	"testing"

	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
	"vcqr/internal/wire"
)

// allocChunk builds a realistic entries chunk: n covered records, each
// with a disclosed value, hidden leaves and chain digests — the shape the
// /stream path serializes thousands of times per large result.
func allocChunk(n int) *engine.Chunk {
	h := hashx.New()
	c := &engine.Chunk{Type: engine.ChunkEntries, Seq: 1, Entries: make([]engine.VOEntry, 0, n)}
	for i := 0; i < n; i++ {
		c.Entries = append(c.Entries, engine.VOEntry{
			Mode:      engine.EntryResult,
			Key:       uint64(i + 1),
			Disclosed: []engine.DisclosedAttr{{Col: 0, Val: relation.BytesVal(h.Hash([]byte{byte(i), 2}))}},
			HiddenLeaves: []hashx.Digest{
				h.Hash([]byte{byte(i)}),
				h.Hash([]byte{byte(i), 1}),
			},
			Combined: h.Hash([]byte{byte(i), 3}),
		})
	}
	return c
}

// frameOf encodes one frame into memory.
func frameOf[T any](t *testing.T, write func(io.Writer, *T) error, v *T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteChunkFrameAllocBudget pins the per-chunk allocation cost of
// the frame encoder: the payload is appended into pooled scratch, so a
// steady-state encode allocates nothing of its own — the budget catches
// a regression that reintroduces a fresh buffer (or a reflective codec)
// per frame.
func TestWriteChunkFrameAllocBudget(t *testing.T) {
	c := allocChunk(256)
	// Warm the pool.
	if err := wire.WriteChunkFrame(io.Discard, c); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := wire.WriteChunkFrame(io.Discard, c); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 4 // measured 0 on go1.24; gob spent ~51
	t.Logf("WriteChunkFrame(256 entries): %.0f allocs/chunk (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("WriteChunkFrame allocates %.0f/chunk, budget %d", allocs, budget)
	}
}

// TestStreamFrameAllocBudget pins the decode half of the frame round
// trip per 256-entry chunk: the payload buffer, the chunk, its entries
// and one arena per per-entry list, however many rows the chunk carries.
func TestStreamFrameAllocBudget(t *testing.T) {
	frame := frameOf(t, wire.WriteChunkFrame, allocChunk(256))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := wire.ReadChunkFrame(bytes.NewReader(frame)); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 20 // measured 6 on go1.24 (gob: ~2900)
	t.Logf("ReadChunkFrame(256 entries): %.0f allocs/chunk (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("ReadChunkFrame allocates %.0f/chunk, budget %d", allocs, budget)
	}
}

// TestReadChunkFrameAllocBudget and TestReadNodeFrameAllocBudget hold the
// decoders to the benchmark's own unit — one 64-row entries chunk, where
// gob spent 1,819 allocations (bench wire.allocs_per_chunk).
func TestReadChunkFrameAllocBudget(t *testing.T) {
	frame := frameOf(t, wire.WriteChunkFrame, allocChunk(64))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := wire.ReadChunkFrame(bytes.NewReader(frame)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ReadChunkFrame(64 entries): %.0f allocs/chunk", allocs)
	if allocs > 180 {
		t.Fatalf("ReadChunkFrame allocates %.0f/chunk, budget 180", allocs)
	}
}

func TestReadNodeFrameAllocBudget(t *testing.T) {
	frame := frameOf(t, wire.WriteNodeFrame, &wire.NodeFrame{Chunk: allocChunk(64)})
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := wire.ReadNodeFrame(bytes.NewReader(frame)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ReadNodeFrame(64 entries): %.0f allocs/chunk", allocs)
	if allocs > 180 {
		t.Fatalf("ReadNodeFrame allocates %.0f/chunk, budget 180", allocs)
	}
}

// endless reads one frame's bytes over and over: a stream that never
// ends, for counting a reader's steady state.
type endless struct {
	frame []byte
	off   int
}

func (e *endless) Read(p []byte) (int, error) {
	n := copy(p, e.frame[e.off:])
	e.off = (e.off + n) % len(e.frame)
	return n, nil
}

// TestRecyclingReaderAllocBudget: once its buffer and arenas have grown
// to fit a stream's entries frames, the recycling frame reader — the one
// QueryStreamWith reads through — decodes an entries frame in no
// allocations at all: the payload, the Chunk, its entries and every
// list are the previous frame's memory. (A string value would still be
// copied; the chunk here carries byte values, as the benchmark's do.)
func TestRecyclingReaderAllocBudget(t *testing.T) {
	rc := wire.NewRecycler(&endless{frame: frameOf(t, wire.WriteChunkFrame, allocChunk(64))})
	allocs := testing.AllocsPerRun(50, func() {
		c, err := rc.Next()
		if err != nil || len(c.Entries) != 64 {
			t.Fatalf("recycled read: %d entries, %v", len(c.Entries), err)
		}
	})
	t.Logf("recycling reader (64 entries): %.0f allocs/frame", allocs)
	if allocs != 0 && !raceEnabled {
		t.Fatalf("recycling reader allocates %.0f per entries frame, want 0", allocs)
	}
}

// TestDrainingNodeStreamAllocBudget holds the coordinator's side of a
// node feed on the drain path to the same: a NodeStream opened to drain
// reads an entries frame in no allocations.
func TestDrainingNodeStreamAllocBudget(t *testing.T) {
	ns := wire.DrainingNodeStream(&endless{frame: frameOf(t, wire.WriteNodeFrame, &wire.NodeFrame{Chunk: allocChunk(64)})})
	allocs := testing.AllocsPerRun(50, func() {
		c, err := ns.Next()
		if err != nil || len(c.Entries) != 64 {
			t.Fatalf("drained node frame: %v", err)
		}
	})
	t.Logf("draining node stream (64 entries): %.0f allocs/frame", allocs)
	if allocs != 0 && !raceEnabled {
		t.Fatalf("draining node stream allocates %.0f per entries frame, want 0", allocs)
	}
}

// TestFrameBufferPoolDropsOversize checks a pathologically large frame
// does not pin its buffer in the one scratch pool every encoder shares: a
// follow-up small write must not fail, and (indirectly) the pool stays
// bounded. Behavioural, not
// alloc-counted — pool retention is not observable directly.
func TestFrameBufferPoolDropsOversize(t *testing.T) {
	big := allocChunk(4096)
	for i := range big.Entries {
		// Inflate each entry so the encoded frame exceeds the pool bound.
		big.Entries[i].HiddenLeaves = append(big.Entries[i].HiddenLeaves, make([]byte, 512))
	}
	var buf bytes.Buffer
	if err := wire.WriteChunkFrame(&buf, big); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 1<<20 {
		t.Skipf("frame only %d bytes, does not exercise the oversize path", buf.Len())
	}
	for i := 0; i < 4; i++ {
		if err := wire.WriteChunkFrame(io.Discard, allocChunk(1)); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkWriteChunkFrame reports the steady-state frame encode cost;
// run with -benchmem to see the pooled-buffer effect.
func BenchmarkWriteChunkFrame(b *testing.B) {
	c := allocChunk(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := wire.WriteChunkFrame(io.Discard, c); err != nil {
			b.Fatal(err)
		}
	}
}
