package wire_test

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/owner"
	"vcqr/internal/wire"
	"vcqr/internal/workload"
)

// streamPrefix returns the header frame and the first entries frame of a
// real 64-row stream — the material a hostile publisher replays.
func streamPrefix(t *testing.T) (header, entries []byte) {
	t.Helper()
	h := hashx.New()
	o := owner.NewWithKey(h, signKey(t))
	rel, err := workload.Employees(workload.EmployeeConfig{N: 64, L: 0, U: 1 << 20, PhotoSize: 64, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := o.Publish(rel, 2)
	if err != nil {
		t.Fatal(err)
	}
	role := accessctl.Role{Name: "user"}
	pub := engine.NewPublisher(h, o.PublicKey(), accessctl.NewPolicy(role))
	if err := pub.AddRelation(sr, false); err != nil {
		t.Fatal(err)
	}
	st, err := pub.ExecuteStream("user", engine.Query{Relation: "Emp"}, engine.StreamOpts{ChunkRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	var frames [2]bytes.Buffer
	for i := range frames {
		c, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteChunkFrame(&frames[i], c); err != nil {
			t.Fatal(err)
		}
	}
	return frames[0].Bytes(), frames[1].Bytes()
}

// pulled counts the reply-body bytes a client actually read.
type pulled struct {
	http.RoundTripper
	n atomic.Int64
}

func (p *pulled) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := p.RoundTripper.RoundTrip(req)
	if err == nil {
		resp.Body = &pulledBody{resp.Body, &p.n}
	}
	return resp, err
}

type pulledBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *pulledBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// TestClientQueryCapsCollectedBytes: a stream has per-frame caps but no
// total, so a hostile publisher that never sends a footer must cost
// Client.Query a bounded collection — the cap plus the frame that crosses
// it — and end in the named refusal, not a hang or an OOM. The cap under
// test is scaled down from MaxDeltaBody so the check itself stays small.
func TestClientQueryCapsCollectedBytes(t *testing.T) {
	const limit = 1 << 20
	header, entries := streamPrefix(t)
	mux := http.NewServeMux()
	wire.StreamEP.Mount(mux, func(w http.ResponseWriter, _ wire.StreamRequest) {
		w.Write(header)
		// "Forever", bounded so a broken cap fails the test instead of the
		// machine: the stream would end footerless after 32 caps' worth.
		for sent := 0; sent < 32*limit; sent += len(entries) {
			if _, err := w.Write(entries); err != nil {
				return
			}
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	meter := &pulled{RoundTripper: http.DefaultTransport}
	client := &wire.Client{BaseURL: srv.URL, HTTP: &http.Client{Transport: meter}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := client.QueryCapped("user", engine.Query{Relation: "Emp"}, limit)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, wire.ErrResultTooBig) {
		t.Fatalf("endless stream: %v, want %v", err, wire.ErrResultTooBig)
	}
	if got, max := meter.n.Load(), int64(limit+len(entries)); got > max {
		t.Fatalf("collected %d bytes of an endless stream, bound is %d", got, max)
	}
	// What is allocated beyond the frames themselves is the decoded entry
	// structs and the regrowth of Collect's slice — a constant factor of
	// the bytes read (≈ 11× cumulative for these 147-byte entries, this
	// process's handler and transport included), so memory is bounded
	// because the bytes are.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*limit {
		t.Fatalf("collecting %d capped bytes allocated %d", limit, grew)
	}
}

// TestClientQueryErrors: every way a publisher can fail a collected
// stream reaches Client.Query's caller as an error, carrying the
// publisher's own text where it sent one.
func TestClientQueryErrors(t *testing.T) {
	header, entries := streamPrefix(t)
	var errFrame bytes.Buffer
	if err := wire.WriteChunkFrame(&errFrame, &engine.Chunk{Type: engine.ChunkError, Seq: 2, Err: "shard 3 retired mid-stream"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		serve func(http.ResponseWriter)
		want  string
		is    error
	}{
		{name: "pre-stream 400", want: `unknown relation "Nope"`, serve: func(w http.ResponseWriter) {
			http.Error(w, `engine: unknown relation "Nope"`, http.StatusBadRequest)
		}},
		{name: "error frame", want: "shard 3 retired mid-stream", serve: func(w http.ResponseWriter) {
			w.Write(header)
			w.Write(entries)
			w.Write(errFrame.Bytes())
		}},
		{name: "ends before footer", want: "ended before footer", serve: func(w http.ResponseWriter) {
			w.Write(header)
			w.Write(entries)
		}},
		{name: "dies mid-frame", is: wire.ErrFrameTruncated, serve: func(w http.ResponseWriter) {
			w.Write(header)
			w.Write(entries[:len(entries)/2])
		}},
		{name: "empty reply", want: "ended before footer", serve: func(http.ResponseWriter) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mux := http.NewServeMux()
			wire.StreamEP.Mount(mux, func(w http.ResponseWriter, _ wire.StreamRequest) { tc.serve(w) })
			srv := httptest.NewServer(mux)
			defer srv.Close()
			res, err := (&wire.Client{BaseURL: srv.URL}).Query("user", engine.Query{Relation: "Emp"})
			if err == nil || res != nil {
				t.Fatalf("got result %v, err %v; want an error alone", res, err)
			}
			if !strings.Contains(err.Error(), tc.want) || (tc.is != nil && !errors.Is(err, tc.is)) {
				t.Fatalf("err = %v, want %q / %v", err, tc.want, tc.is)
			}
		})
	}
}
