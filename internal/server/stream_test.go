package server_test

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"vcqr/internal/engine"
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
