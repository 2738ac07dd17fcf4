package server_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
	"vcqr/internal/server"
	"vcqr/internal/verify"
	"vcqr/internal/wire"
)

func TestServerHTTPStreamVerifyRoundTrip(t *testing.T) {
	s, _, v, role := newServer(t, 64)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &wire.Client{BaseURL: ts.URL}

	q := engine.Query{Relation: "Uniform", KeyLo: 1}
	var got []uint64
	stats, err := client.QueryStream(v, role, "all", q, 8, func(r engine.Row) error {
		got = append(got, r.Key)
		return nil
	})
	if err != nil {
		t.Fatalf("stream rejected: %v", err)
	}
	if stats.Rows != 64 || len(got) != 64 {
		t.Fatalf("stream released %d rows (callback saw %d), want 64", stats.Rows, len(got))
	}
	// 64 rows at 8 per chunk: header + 8 entry chunks + footer.
	if stats.Chunks != 10 {
		t.Fatalf("stream used %d chunks, want 10", stats.Chunks)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatal("rows released out of key order")
		}
	}

	// Per-chunk accounting landed in the stats.
	st := s.Stats()
	if st.Streams != 1 {
		t.Fatalf("Streams = %d, want 1", st.Streams)
	}
	if st.StreamChunks != uint64(stats.Chunks) {
		t.Fatalf("StreamChunks = %d, want %d", st.StreamChunks, stats.Chunks)
	}
	if st.StreamBytes != uint64(stats.Bytes) {
		t.Fatalf("StreamBytes = %d, want %d", st.StreamBytes, stats.Bytes)
	}

	// Pre-stream failures use the HTTP status, not a mangled stream.
	if _, err := client.QueryStream(v, role, "all", engine.Query{Relation: "nope", KeyLo: 1}, 0, nil); err == nil ||
		!strings.Contains(err.Error(), "publisher returned") {
		t.Fatalf("unknown relation over /stream = %v", err)
	}
}

// TestStreamPinsEpochAcrossDelta interleaves a delta cutover with an
// in-flight stream: the stream was created on the pre-delta epoch and
// every subsequent chunk must come from that same snapshot, or the
// signature chain would mix epochs and fail. Served directly (no HTTP)
// so the interleaving is deterministic.
func TestStreamPinsEpochAcrossDelta(t *testing.T) {
	s, h, v, role := newServer(t, 64)

	q := engine.Query{Relation: "Uniform", KeyLo: 1}
	st, err := s.QueryStream("all", q, 4)
	if err != nil {
		t.Fatal(err)
	}
	sv := v.NewStreamVerifier(q, role)

	// Consume the header and the first entries chunk on the old epoch.
	for i := 0; i < 2; i++ {
		c, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sv.Consume(c); err != nil {
			t.Fatalf("chunk %d rejected: %v", i, err)
		}
	}

	// Cut over to a new epoch mid-stream: mutate a record in the middle
	// of the streamed range on an owner copy and apply the diff.
	_, owner := build(t, 64)
	epochBefore := s.Epoch()
	d := ownerUpdate(t, h, owner, 32, []byte("mid-stream update"))
	if _, err := s.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() == epochBefore {
		t.Fatal("delta did not advance the epoch")
	}

	// The rest of the stream must still verify — on the pinned epoch.
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
			t.Fatalf("post-delta chunk rejected: %v", err)
		}
		rows += len(released)
	}
	if err := sv.Finish(); err != nil {
		t.Fatal(err)
	}

	// A fresh query sees the post-delta epoch and verifies too.
	res, err := collect(s, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyResult(q, role, res); err != nil {
		t.Fatalf("post-delta query rejected: %v", err)
	}
}

// TestConcurrentStreamsAndDeltas hammers /stream from several clients
// while deltas cut over continuously; every stream must verify end to
// end on whatever epoch it pinned. The partitioned input pins under the
// hosting table's lock while boundary-crossing deltas stitch and publish
// two shards under it. Run with -race.
func TestConcurrentStreamsAndDeltas(t *testing.T) {
	plain, h, v, role := newServer(t, 64)
	part := newPartServer(t, 64, 4)
	for _, tc := range []struct {
		name string
		s    *server.Server
		v    *verify.Verifier
	}{
		{"plain", plain, v},
		{"partitioned", part.s, part.v},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			const (
				streamers = 4
				perWorker = 5
				deltas    = 10
			)
			var wg sync.WaitGroup
			errc := make(chan error, streamers*perWorker+deltas)

			wg.Add(1)
			go func() {
				defer wg.Done()
				_, owner := build(t, 64)
				for i := 0; i < deltas; i++ {
					// Records 15 and 50 re-sign across a 16-record shard's edge.
					d := ownerUpdate(t, h, owner, 1+i*7%62, []byte{byte(i)})
					if _, err := s.ApplyDelta(d); err != nil {
						errc <- err
						return
					}
				}
			}()

			q := engine.Query{Relation: "Uniform", KeyLo: 1}
			for w := 0; w < streamers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					client := &wire.Client{BaseURL: ts.URL}
					for i := 0; i < perWorker; i++ {
						stats, err := client.QueryStream(tc.v, role, "all", q, 4, nil)
						if err != nil {
							errc <- err
							return
						}
						if stats.Rows != 64 {
							errc <- io.ErrShortBuffer
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatalf("concurrent stream/delta failure: %v", err)
			}

			st := s.Stats()
			if st.Streams != streamers*perWorker {
				t.Fatalf("Streams = %d, want %d", st.Streams, streamers*perWorker)
			}
			if st.DeltasApplied != deltas {
				t.Fatalf("DeltasApplied = %d, want %d", st.DeltasApplied, deltas)
			}
		})
	}
}

// TestStreamRowBudgetClamped checks the server clamps absurd chunk-row
// requests instead of materializing.
func TestStreamRowBudgetClamped(t *testing.T) {
	s, _, _, _ := newServer(t, 8)
	st, err := s.QueryStream("all", engine.Query{Relation: "Uniform", KeyLo: 1}, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for {
		c, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Entries) > engine.MaxChunkRows {
			t.Fatalf("chunk carries %d entries, cap %d", len(c.Entries), engine.MaxChunkRows)
		}
	}
}

// TestDistinctStreamSpansRecycledChunks: a DISTINCT /stream whose run of
// one key spans four entries chunks, read through QueryStreamWith, whose
// recycling frame reader overwrites each entries chunk with the next.
// The verifier's duplicate elision must compare against copies it owns:
// with chunk memory it would find key 5's value D already "released" in
// the slot an earlier chunk held B in, after a later chunk overwrote it,
// and drop a distinct row. The released rows must be exactly the oracle's — each distinct
// (key, value) once, in key order.
func TestDistinctStreamSpansRecycledChunks(t *testing.T) {
	h := hashx.New()
	schema := relation.Schema{Name: "D", KeyName: "K", Cols: []relation.Column{{Name: "V", Type: relation.TypeBytes}}}
	rel, err := relation.New(schema, 0, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	// ChunkRows 2: [3:X 5:A] [5:B 5:A] [5:C 5:B] [5:D 5:C] [9:Y].
	type row struct {
		key uint64
		val string
	}
	rows := []row{{3, "X"}, {5, "A"}, {5, "B"}, {5, "A"}, {5, "C"}, {5, "B"}, {5, "D"}, {5, "C"}, {9, "Y"}}
	var want []row
	seen := map[row]bool{}
	for _, r := range rows {
		if _, err := rel.Insert(relation.Tuple{Key: r.key, Attrs: []relation.Value{relation.BytesVal([]byte(r.val))}}); err != nil {
			t.Fatal(err)
		}
		if !seen[r] {
			seen[r] = true
			want = append(want, r)
		}
	}
	p, err := core.NewParams(0, 1<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.Build(h, signKey(t), p, rel)
	if err != nil {
		t.Fatal(err)
	}
	role := accessctl.Role{Name: "all"}
	s := server.New(server.Config{Hasher: h, Pub: signKey(t).Public(), Policy: accessctl.NewPolicy(role)})
	t.Cleanup(s.Close)
	if err := s.AddRelation(sr, true); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q := engine.Query{Relation: "D", Project: []string{"V"}, Distinct: true}
	var got []row
	stats, err := (&wire.Client{BaseURL: ts.URL}).QueryStream(verify.New(h, signKey(t).Public(), p, schema), role, "all", q, 2,
		func(r engine.Row) error {
			got = append(got, row{r.Key, string(r.Values[0].Val.Bytes)})
			return nil
		})
	if err != nil {
		t.Fatalf("DISTINCT stream rejected: %v", err)
	}
	if stats.Chunks != 7 {
		t.Fatalf("stream used %d chunks, want header + 5 entries chunks + footer", stats.Chunks)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("DISTINCT released %v, the oracle %v", got, want)
	}
}

// TestTimingFrameBetweenEntriesChunks: the client skips an advisory
// timing frame without showing it to the verifier, and an untrusted
// publisher may put one anywhere. Here one follows every entries chunk,
// or none does. Either way each entries chunk decodes into the memory of
// the one before (a timing frame between them takes only the payload
// buffer with it), so the entry the verifier holds across the chunk
// boundary, values included, must be its own copy. The client releases
// exactly the rows, values included, that VerifyResult finds in the
// honest result.
func TestTimingFrameBetweenEntriesChunks(t *testing.T) {
	h, sr := build(t, 64)
	v := verify.New(h, signKey(t).Public(), sr.Params, sr.Schema)
	role := accessctl.Role{Name: "all"}
	pub := engine.NewPublisher(h, signKey(t).Public(), accessctl.NewPolicy(role))
	if err := pub.AddRelation(sr, true); err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Relation: "Uniform", KeyLo: 1}
	render := func(r engine.Row) string {
		row := fmt.Sprint(r.Key)
		for _, d := range r.Values {
			row += fmt.Sprintf("|%d=%x", d.Col, d.Val.Encode())
		}
		return row
	}
	for _, mode := range []struct{ timing bool }{{true}, {false}} {
		res, err := pub.Execute("all", q)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := v.VerifyResult(q, role, res)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, r := range oracle {
			want = append(want, render(r))
		}

		st, err := pub.ExecuteStream("all", q, engine.StreamOpts{ChunkRows: 8})
		if err != nil {
			t.Fatal(err)
		}
		var reply bytes.Buffer
		for {
			c, err := st.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := wire.WriteChunkFrame(&reply, c); err != nil {
				t.Fatal(err)
			}
			if c.Type == engine.ChunkEntries && mode.timing {
				if err := wire.WriteChunkFrame(&reply, &engine.Chunk{Type: engine.ChunkTiming, Trace: "interleaved"}); err != nil {
					t.Fatal(err)
				}
			}
		}
		liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Write(reply.Bytes())
		}))
		var got []string
		stats, err := (&wire.Client{BaseURL: liar.URL}).QueryStream(v, role, "all", q, 8, func(r engine.Row) error {
			got = append(got, render(r))
			return nil
		})
		liar.Close()
		if err != nil {
			t.Fatalf("%+v: stream rejected: %v", mode, err)
		}
		if stats.Chunks != 10 {
			t.Fatalf("%+v: verifier saw %d chunks, want header + 8 entries chunks + footer", mode, stats.Chunks)
		}
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%+v: client released %d rows, the honest result %d; first difference at row %d",
				mode, len(got), len(want), i)
		}
	}
}
