package engine_test

import (
	"io"
	"reflect"
	"sync"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
	"vcqr/internal/workload"
)

var (
	streamKeyOnce sync.Once
	streamKey     *sig.PrivateKey
)

func streamSignKey(t testing.TB) *sig.PrivateKey {
	streamKeyOnce.Do(func() {
		k, err := sig.Generate(sig.DefaultBits, nil)
		if err != nil {
			t.Fatalf("keygen: %v", err)
		}
		streamKey = k
	})
	return streamKey
}

// newStreamFix builds a publisher over an n-record employee relation
// with an all-access role and a restricted one.
func newStreamFix(t testing.TB, n int) (*engine.Publisher, *core.SignedRelation) {
	t.Helper()
	h := hashx.New()
	rel, err := workload.Employees(workload.EmployeeConfig{
		N: n, L: 0, U: 1 << 20, PhotoSize: 16, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewParams(0, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.Build(h, streamSignKey(t), p, rel)
	if err != nil {
		t.Fatal(err)
	}
	pub := engine.NewPublisher(h, streamSignKey(t).Public(), accessctl.NewPolicy(accessctl.Role{Name: "all"}))
	if err := pub.AddRelation(sr, false); err != nil {
		t.Fatal(err)
	}
	return pub, sr
}

// drain pulls a stream to completion, checking chunk shape invariants:
// contiguous Seq numbers, header first, footer last, entry chunks within
// the row budget.
func drain(t *testing.T, st engine.ResultStream, maxRows int) []*engine.Chunk {
	t.Helper()
	var chunks []*engine.Chunk
	for {
		c, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if c.Seq != uint64(len(chunks)) {
			t.Fatalf("chunk %d has Seq %d", len(chunks), c.Seq)
		}
		chunks = append(chunks, c)
	}
	if len(chunks) < 2 {
		t.Fatalf("stream yielded %d chunks, want >= 2", len(chunks))
	}
	if chunks[0].Type != engine.ChunkHeader {
		t.Fatalf("first chunk is %v, want header", chunks[0].Type)
	}
	if chunks[len(chunks)-1].Type != engine.ChunkFooter {
		t.Fatalf("last chunk is %v, want footer", chunks[len(chunks)-1].Type)
	}
	for _, c := range chunks[1 : len(chunks)-1] {
		if c.Type != engine.ChunkEntries {
			t.Fatalf("middle chunk is %v, want entries", c.Type)
		}
		if len(c.Entries) == 0 || len(c.Entries) > maxRows {
			t.Fatalf("entries chunk carries %d rows, budget %d", len(c.Entries), maxRows)
		}
	}
	// EOF is sticky.
	if _, err := st.Next(); err != io.EOF {
		t.Fatalf("Next after EOF = %v", err)
	}
	return chunks
}

// TestExecuteStreamMatchesExecute checks the drain equivalence: for any
// chunk size, Collect(ExecuteStream(q)) must be byte-identical to
// Execute(q) — including filters, projection, DISTINCT and empty ranges.
func TestExecuteStreamMatchesExecute(t *testing.T) {
	pub, _ := newStreamFix(t, 40)
	queries := []engine.Query{
		{Relation: "Emp", KeyLo: 1},
		{Relation: "Emp", KeyLo: 1, KeyHi: 1 << 19, Project: []string{"Name"}},
		{Relation: "Emp", KeyLo: 1, Filters: []engine.Filter{{Col: "Dept", Op: engine.OpLt, Val: relation.IntVal(3)}}},
		{Relation: "Emp", KeyLo: 1, Project: []string{"Dept"}, Distinct: true},
		{Relation: "Emp", KeyLo: 3, KeyHi: 3}, // almost surely empty
	}
	for qi, q := range queries {
		want, err := pub.Execute("all", q)
		if err != nil {
			t.Fatalf("query %d: Execute: %v", qi, err)
		}
		for _, chunkRows := range []int{1, 3, 1000} {
			st, err := pub.ExecuteStream("all", q, engine.StreamOpts{ChunkRows: chunkRows})
			if err != nil {
				t.Fatalf("query %d: ExecuteStream: %v", qi, err)
			}
			got, err := engine.Collect(st)
			if err != nil {
				t.Fatalf("query %d: Collect: %v", qi, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d chunkRows=%d: stream result differs from Execute", qi, chunkRows)
			}
		}
	}
}

// TestStreamChunkShape checks the emitted chunk structure directly.
func TestStreamChunkShape(t *testing.T) {
	pub, _ := newStreamFix(t, 40)
	st, err := pub.ExecuteStream("all", engine.Query{Relation: "Emp", KeyLo: 1}, engine.StreamOpts{ChunkRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	chunks := drain(t, st, 8)
	// 40 records at 8 per chunk: header + 5 entry chunks + footer.
	if len(chunks) != 7 {
		t.Fatalf("got %d chunks, want 7", len(chunks))
	}
	if chunks[0].Effective.KeyLo == 0 || chunks[0].KeyLo != chunks[0].Effective.KeyLo {
		t.Fatalf("header range not populated: %+v", chunks[0])
	}
	if chunks[len(chunks)-1].AggSig == nil {
		t.Fatal("footer missing aggregate signature")
	}
}

// TestChunkResultRoundTrip checks that slicing a materialized result
// back into chunks and re-collecting reproduces it.
func TestChunkResultRoundTrip(t *testing.T) {
	pub, _ := newStreamFix(t, 40)
	res, err := pub.Execute("all", engine.Query{Relation: "Emp", KeyLo: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.Collect(chunkSlice(engine.ChunkResult(res, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("ChunkResult round trip differs")
	}
}

// TestStreamOptsClamp checks chunk-row normalization.
func TestStreamOptsClamp(t *testing.T) {
	pub, _ := newStreamFix(t, 40)
	st, err := pub.ExecuteStream("all", engine.Query{Relation: "Emp", KeyLo: 1}, engine.StreamOpts{ChunkRows: -5})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, st, engine.DefaultChunkRows)
}

// chunkSlice adapts a chunk slice to the ResultStream interface.
type sliceStream struct {
	chunks []*engine.Chunk
	pos    int
}

func chunkSlice(chunks []*engine.Chunk) *sliceStream { return &sliceStream{chunks: chunks} }

func (s *sliceStream) Next() (*engine.Chunk, error) {
	if s.pos >= len(s.chunks) {
		return nil, io.EOF
	}
	c := s.chunks[s.pos]
	s.pos++
	return c, nil
}
