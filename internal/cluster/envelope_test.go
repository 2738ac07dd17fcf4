package cluster_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"vcqr/internal/cache"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/wire"
)

// envelopeRow is one declared endpoint as the envelope test drives it.
type envelopeRow struct {
	ep wire.Endpoint
	// refusal decodes the reply a malformed request gets and returns its
	// Err field; nil for the rows that refuse on the status line (400).
	refusal func(io.Reader) (string, error)
	// fail is a well-formed call the handler refuses (nil: the handler
	// cannot fail); notHosting says the refusal is a node's stale-routing
	// one and must still read as such on the client side.
	fail       func(*wire.Client) error
	notHosting bool
}

// gobRefusal decodes a gob reply of type T and returns its Err field.
func gobRefusal[T any](errOf func(*T) string) func(io.Reader) (string, error) {
	return func(r io.Reader) (string, error) {
		var v T
		err := gob.NewDecoder(r).Decode(&v)
		return errOf(&v), err
	}
}

// TestEndpointEnvelope ranges over every endpoint the wire table
// declares, against the process that mounts it — a node-mode server, a
// coordinator (the cluster's front door bounds its request bodies
// exactly as the single-process server does), a cache peer — and pins
// the envelope every row shares: GET is refused with 405; the body the
// handler reads gives out at the row's cap (the handler swaps the capped
// body onto the request, so draining it shows the cap without pushing
// 256 MiB through a decoder); a malformed request is refused in the
// row's documented place, the status line or the reply's Err field; and
// a handler's own refusal reaches the caller as a Go error that keeps
// wire.IsNotHosting's substring contract.
func TestEndpointEnvelope(t *testing.T) {
	f := newCluster(t, 16, 2, 1, nil)
	coordTS := httptest.NewServer(f.coord.Handler())
	defer coordTS.Close()
	peer := cache.NewServer(1 << 20)
	peerTS := httptest.NewServer(peer.Handler())
	defer peerTS.Close()

	nope := engine.Query{Relation: "nope", KeyLo: 1}
	gone := wire.ShardRef{Relation: "Uniform", Shard: 99}
	okErr := gobRefusal(func(r *wire.OKResponse) string { return r.Err })
	deltaErr := gobRefusal(func(r *wire.DeltaResponse) string { return r.Err })
	// Both consumers of /stream, the verifying one and the collecting one.
	streamFails := func(cl *wire.Client) error {
		if _, err := cl.Query("all", nope); err == nil {
			return nil
		}
		_, err := cl.QueryStream(f.v, f.role, "all", nope, 0, nil)
		return err
	}
	deltaFails := func(cl *wire.Client) error { _, err := cl.SendDelta(delta.Delta{Relation: "nope"}); return err }

	for _, side := range []struct {
		name    string
		handler http.Handler
		url     string
		rows    []envelopeRow
	}{
		{"node", f.nodes[0].Handler(), f.urls[0], []envelopeRow{
			{ep: wire.StreamEP.Endpoint, fail: streamFails},
			{ep: wire.DeltaRPC.Endpoint, refusal: deltaErr, fail: deltaFails},
			{ep: wire.ShardEdgesRPC.Endpoint, refusal: gobRefusal(func(r *wire.EdgeResponse) string { return r.Err }),
				fail: func(cl *wire.Client) error { _, err := cl.ShardEdges(gone); return err }, notHosting: true},
			{ep: wire.ShardDigestRPC.Endpoint, refusal: gobRefusal(func(r *wire.DigestResponse) string { return r.Err }),
				fail: func(cl *wire.Client) error { _, err := cl.ShardDigest(gone); return err }, notHosting: true},
			{ep: wire.ShardRemoveRPC.Endpoint, refusal: okErr,
				fail: func(cl *wire.Client) error { return cl.ShardRemove(gone) }, notHosting: true},
			{ep: wire.HostedRPC.Endpoint, refusal: gobRefusal(func(r *wire.HostedResponse) string { return r.Err })},
			{ep: wire.NodeDeltaRPC.Endpoint, refusal: gobRefusal(func(r *wire.NodeDeltaResponse) string { return r.Err }),
				fail: func(cl *wire.Client) error {
					_, err := cl.NodeDeltaPrepare(delta.Delta{Relation: "nope"})
					return err
				}, notHosting: true},
			{ep: wire.NodeMirrorRPC.Endpoint, refusal: gobRefusal(func(r *wire.MirrorResponse) string { return r.Err }),
				fail: func(cl *wire.Client) error {
					_, err := cl.NodeMirror(wire.MirrorRequest{Relation: "nope"})
					return err
				}, notHosting: true},
			{ep: wire.NodeTxRPC.Endpoint, refusal: okErr,
				fail: func(cl *wire.Client) error { _, err := cl.NodeTx(wire.TxRequest{Relation: "nope"}); return err }, notHosting: true},
			{ep: wire.NodeLeaseRPC.Endpoint, refusal: func(r io.Reader) (string, error) {
				resp, err := wire.ReadLeaseResponse(r)
				if err != nil {
					return "", err
				}
				return resp.Err, nil
			}},
			{ep: wire.ShardInstallRPC.Endpoint, refusal: okErr,
				fail: func(cl *wire.Client) error { _, err := cl.ShardInstall(bytes.NewReader(nil)); return err }},
			{ep: wire.ShardFetchEP.Endpoint,
				fail: func(cl *wire.Client) error { _, err := cl.ShardFetch(gone); return err }, notHosting: true},
			{ep: wire.ShardStreamEP.Endpoint,
				fail: func(cl *wire.Client) error {
					_, err := cl.ShardStream(wire.ShardStreamRequest{Role: "all", Query: engine.Query{Relation: "Uniform"}, Shard: 99})
					return err
				}, notHosting: true},
		}},
		{"coordinator", f.coord.Handler(), coordTS.URL, []envelopeRow{
			{ep: wire.StreamEP.Endpoint, fail: streamFails},
			{ep: wire.DeltaRPC.Endpoint, refusal: deltaErr, fail: deltaFails},
		}},
		{"cache peer", peer.Handler(), peerTS.URL, []envelopeRow{
			{ep: wire.CacheRPC.Endpoint},
		}},
	} {
		// One read path: the materialized endpoints are gone at every tier.
		for _, path := range []string{"/query", "/batch"} {
			rec := httptest.NewRecorder()
			side.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, nil))
			if rec.Code != http.StatusNotFound {
				t.Errorf("%s: POST %s answered %d, want 404", side.name, path, rec.Code)
			}
		}
		for _, row := range side.rows {
			name := side.name + " " + row.ep.Path

			rec := httptest.NewRecorder()
			side.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, row.ep.Path, nil))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s: GET answered %d, want 405", name, rec.Code)
			}

			body := &garbageBody{size: row.ep.Cap + 2}
			req := httptest.NewRequest(http.MethodPost, row.ep.Path, body)
			rec = httptest.NewRecorder()
			side.handler.ServeHTTP(rec, req)
			if row.refusal == nil {
				if rec.Code != http.StatusBadRequest {
					t.Errorf("%s: garbage body answered %d, want 400", name, rec.Code)
				}
			} else if msg, err := row.refusal(rec.Body); rec.Code != http.StatusOK || err != nil || msg == "" {
				t.Errorf("%s: garbage body answered %d with Err %q (decode error %v), want an in-band refusal", name, rec.Code, msg, err)
			}
			var tooLarge *http.MaxBytesError
			if _, err := io.Copy(io.Discard, req.Body); !errors.As(err, &tooLarge) || tooLarge.Limit != row.ep.Cap {
				t.Errorf("%s: draining the handler's body = %v, want a %d-byte cap", name, err, row.ep.Cap)
			}
			if body.read > row.ep.Cap+1 {
				t.Errorf("%s: read %d bytes of an oversize body, cap is %d", name, body.read, row.ep.Cap)
			}

			if row.fail == nil {
				continue
			}
			err := row.fail(&wire.Client{BaseURL: side.url})
			if err == nil {
				t.Errorf("%s: the handler's refusal did not reach the caller", name)
			} else if wire.IsNotHosting(err) != row.notHosting {
				t.Errorf("%s: IsNotHosting(%v) = %v, want %v", name, err, !row.notHosting, row.notHosting)
			}
		}
	}

	// A coordinator with a cache tier plans before it looks anything up,
	// so its refusals read exactly as the uncached coordinator's do.
	t.Run("cache-configured coordinator", func(t *testing.T) {
		cached := newCachedCluster(t, 16, 2, 1)
		cachedTS := httptest.NewServer(cached.coord.Handler())
		defer cachedTS.Close()
		refusal := func(url string, req wire.StreamRequest) (int, string) {
			var body bytes.Buffer
			if err := gob.NewEncoder(&body).Encode(req); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(url+"/stream", "application/octet-stream", &body)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			text, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(text)
		}
		for name, req := range map[string]wire.StreamRequest{
			"unknown relation": {Role: "all", Query: nope},
			"bad role":         {Role: "nobody", Query: engine.Query{Relation: "Uniform"}},
			"DISTINCT":         {Role: "all", Query: engine.Query{Relation: "Uniform", Distinct: true}},
		} {
			code, text := refusal(coordTS.URL, req)
			ccode, ctext := refusal(cachedTS.URL, req)
			if code != http.StatusBadRequest || ccode != code || ctext != text {
				t.Errorf("%s: uncached %d %q, cache-configured %d %q; want one 400", name, code, text, ccode, ctext)
			}
		}
		if st := cached.coord.Stats(); st.Cache.Misses != 0 || st.Errors != 3 {
			t.Errorf("refused requests reached the cache tier: %+v, errors %d", st.Cache, st.Errors)
		}
	})
}
