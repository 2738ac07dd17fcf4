package server_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
	"vcqr/internal/server"
	"vcqr/internal/verify"
	"vcqr/internal/wire"
)

// newServer builds a server hosting an n-record uniform relation plus
// the verifier a client would hold.
func newServer(t testing.TB, n int) (*server.Server, *hashx.Hasher, *verify.Verifier, accessctl.Role) {
	t.Helper()
	h, sr := build(t, n)
	role := accessctl.Role{Name: "all"}
	s := server.New(server.Config{
		Hasher: h,
		Pub:    signKey(t).Public(),
		Policy: accessctl.NewPolicy(role),
	})
	t.Cleanup(s.Close)
	v := verify.New(h, signKey(t).Public(), sr.Params, sr.Schema)
	if err := s.AddRelation(sr, true); err != nil {
		t.Fatal(err)
	}
	return s, h, v, role
}

// collect answers q as one materialized result: the in-process stream,
// collected.
func collect(s *server.Server, role string, q engine.Query) (*engine.Result, error) {
	st, err := s.QueryStream(role, q, 0)
	if err != nil {
		return nil, err
	}
	return engine.Collect(st)
}

func TestServerHTTPQueryVerifyRoundTrip(t *testing.T) {
	s, _, v, role := newServer(t, 64)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &wire.Client{BaseURL: ts.URL}

	q := engine.Query{Relation: "Uniform", KeyLo: 1}
	res, err := client.Query("all", q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := v.VerifyResult(q, role, res)
	if err != nil {
		t.Fatalf("result rejected: %v", err)
	}
	if len(rows) != 64 {
		t.Fatalf("got %d rows, want 64", len(rows))
	}

	// Unknown relation surfaces as a publisher error, not a transport one.
	if _, err := client.Query("all", engine.Query{Relation: "nope", KeyLo: 1}); err == nil ||
		!strings.Contains(err.Error(), "unknown relation") {
		t.Fatalf("unknown relation error = %v", err)
	}
}

func TestServerHTTPBatchQuery(t *testing.T) {
	s, _, v, role := newServer(t, 64)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &wire.Client{BaseURL: ts.URL}

	qs := []engine.Query{
		{Relation: "Uniform", KeyLo: 1},
		{Relation: "Uniform", KeyLo: 1, KeyHi: 1 << 19},
		{Relation: "nope", KeyLo: 1},
	}
	for i, q := range qs[:2] {
		res, err := client.Query("all", q)
		if err != nil {
			t.Fatalf("batch item %d: %v", i, err)
		}
		if _, err := v.VerifyResult(q, role, res); err != nil {
			t.Fatalf("batch item %d rejected: %v", i, err)
		}
	}
	if _, err := client.Query("all", qs[2]); err == nil {
		t.Fatal("batch item for unknown relation should fail")
	}
}

func TestServerDeltaInvalidatesCacheViaEpoch(t *testing.T) {
	h, sr := build(t, 32)
	ownerCopy := sr.Clone()
	role := accessctl.Role{Name: "all"}
	s := server.New(server.Config{Hasher: h, Pub: signKey(t).Public(), Policy: accessctl.NewPolicy(role)})
	defer s.Close()
	if err := s.AddRelation(sr, false); err != nil {
		t.Fatal(err)
	}
	v := verify.New(h, signKey(t).Public(), sr.Params, sr.Schema)

	q := engine.Query{Relation: "Uniform", KeyLo: 1}
	if _, err := collect(s, "all", q); err != nil {
		t.Fatal(err)
	}

	d := ownerUpdate(t, h, ownerCopy, 5, []byte("post-delta"))
	if _, err := s.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}

	post, err := collect(s, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := v.VerifyResult(q, role, post)
	if err != nil {
		t.Fatalf("post-delta result rejected: %v", err)
	}
	found := false
	for _, r := range rows {
		for _, val := range r.Values {
			if val.Val.Equal(relation.BytesVal([]byte("post-delta"))) {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("post-delta result does not contain the updated payload")
	}
}

// TestServerConcurrentQueriesRacingDelta is the subsystem's core claim
// under -race: N clients hammer the HTTP API while a delta lands
// mid-flight, and every response, from either epoch, verifies against the
// owner's key.
func TestServerConcurrentQueriesRacingDelta(t *testing.T) {
	h, sr := build(t, 48)
	ownerCopy := sr.Clone()
	role := accessctl.Role{Name: "all"}
	s := server.New(server.Config{Hasher: h, Pub: signKey(t).Public(), Policy: accessctl.NewPolicy(role)})
	defer s.Close()
	if err := s.AddRelation(sr, true); err != nil {
		t.Fatal(err)
	}
	v := verify.New(h, signKey(t).Public(), sr.Params, sr.Schema)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	const rounds = 20
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client := &wire.Client{BaseURL: ts.URL}
			<-start
			for i := 0; i < rounds; i++ {
				// Mix of distinct ranges and repeats.
				q := engine.Query{Relation: "Uniform", KeyLo: uint64(1 + (i%4)*100)}
				res, err := client.Query("all", q)
				if err != nil {
					errc <- fmt.Errorf("client %d round %d: %w", id, i, err)
					return
				}
				if _, err := v.VerifyResult(q, role, res); err != nil {
					errc <- fmt.Errorf("client %d round %d REJECTED: %w", id, i, err)
					return
				}
			}
		}(c)
	}
	close(start)

	// Land two delta batches mid-flight through the ingest endpoint.
	deltaClient := &wire.Client{BaseURL: ts.URL}
	for i, idx := range []int{7, 21} {
		d := ownerUpdate(t, h, ownerCopy, idx, []byte(fmt.Sprintf("delta-%d", i)))
		if _, err := deltaClient.SendDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	st := s.Stats()
	if st.DeltasApplied != 2 {
		t.Fatalf("deltas applied = %d", st.DeltasApplied)
	}
	if st.Queries == 0 || st.Errors != 0 {
		t.Fatalf("queries=%d errors=%d", st.Queries, st.Errors)
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	s, _, _, _ := newServer(t, 8)
	hs, err := server.Serve("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + hs.Addr()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %s", resp.Status)
	}
	resp, err = http.Get(url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting after shutdown")
	}
}
