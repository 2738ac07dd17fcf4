package cluster_test

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vcqr/internal/cache"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/wire"
)

// envelopeRow is one declared endpoint as the envelope test drives it.
type envelopeRow struct {
	ep wire.Endpoint
	// refusal is a call of the row that reads the reply through the row's
	// own codec, returning its Err field as an error; nil for the rows
	// that refuse a malformed request on the status line (400).
	refusal func(*wire.Client) error
	// fail is a well-formed call the handler refuses (nil: the handler
	// cannot fail); notHosting says the refusal is a node's stale-routing
	// one and must still read as such on the client side.
	fail       func(*wire.Client) error
	notHosting bool
}

// garbagePost serves each request in process on handler with its body
// swapped for size garbage bytes, keeping the handler-side request and
// the status it answered for the envelope checks.
type garbagePost struct {
	handler http.Handler
	size    int64
	body    *garbageBody
	req     *http.Request
	code    int
}

func (g *garbagePost) RoundTrip(r *http.Request) (*http.Response, error) {
	g.body = &garbageBody{size: g.size}
	g.req = httptest.NewRequest(r.Method, r.URL.Path, g.body)
	rec := httptest.NewRecorder()
	g.handler.ServeHTTP(rec, g.req)
	g.code = rec.Code
	return rec.Result(), nil
}

// TestEndpointEnvelope ranges over every endpoint the wire table
// declares, against the process that mounts it — a node-mode server, a
// coordinator (the cluster's front door bounds its request bodies
// exactly as the single-process server does), a cache peer — and pins
// the envelope every row shares: GET is refused with 405; the body the
// handler reads gives out at the row's cap (the handler swaps the capped
// body onto the request, so draining it shows the cap without pushing
// 256 MiB through a decoder); a malformed request is refused in the
// row's documented place, the status line or the reply's Err field, which
// the caller reads back through the row's own codec; and
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
	// Both consumers of /stream, the verifying one and the collecting one.
	streamFails := func(cl *wire.Client) error {
		if _, err := cl.Query("all", nope); err == nil {
			return nil
		}
		_, err := cl.QueryStream(f.v, f.role, "all", nope, 0, nil)
		return err
	}
	deltaFails := func(cl *wire.Client) error { _, err := cl.SendDelta(delta.Delta{Relation: "nope"}); return err }
	edgesFails := func(cl *wire.Client) error { _, err := cl.ShardEdges(gone); return err }
	digestFails := func(cl *wire.Client) error { _, err := cl.ShardDigest(gone); return err }
	removeFails := func(cl *wire.Client) error { return cl.ShardRemove(gone) }
	prepareFails := func(cl *wire.Client) error { _, err := cl.NodeDeltaPrepare(delta.Delta{Relation: "nope"}); return err }
	mirrorFails := func(cl *wire.Client) error { _, err := cl.NodeMirror(wire.MirrorRequest{Relation: "nope"}); return err }
	txFails := func(cl *wire.Client) error { _, err := cl.NodeTx(wire.TxRequest{Relation: "nope"}); return err }
	installFails := func(cl *wire.Client) error { _, err := cl.ShardInstall(bytes.NewReader(nil)); return err }

	for _, side := range []struct {
		name    string
		handler http.Handler
		url     string
		rows    []envelopeRow
	}{
		{"node", f.nodes[0].Handler(), f.urls[0], []envelopeRow{
			{ep: wire.StreamEP.Endpoint, fail: streamFails},
			{ep: wire.DeltaRPC.Endpoint, refusal: deltaFails, fail: deltaFails},
			{ep: wire.ShardEdgesRPC.Endpoint, refusal: edgesFails, fail: edgesFails, notHosting: true},
			{ep: wire.ShardDigestRPC.Endpoint, refusal: digestFails, fail: digestFails, notHosting: true},
			{ep: wire.ShardRemoveRPC.Endpoint, refusal: removeFails, fail: removeFails, notHosting: true},
			{ep: wire.HostedRPC.Endpoint, refusal: func(cl *wire.Client) error { _, err := cl.Hosted(); return err }},
			{ep: wire.NodeDeltaRPC.Endpoint, refusal: prepareFails, fail: prepareFails, notHosting: true},
			{ep: wire.NodeMirrorRPC.Endpoint, refusal: mirrorFails, fail: mirrorFails, notHosting: true},
			{ep: wire.NodeTxRPC.Endpoint, refusal: txFails, fail: txFails, notHosting: true},
			{ep: wire.NodeLeaseRPC.Endpoint, refusal: func(cl *wire.Client) error { _, err := cl.NodeLease(wire.LeaseRequest{}); return err }},
			{ep: wire.ShardInstallRPC.Endpoint, refusal: installFails, fail: installFails},
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
			{ep: wire.DeltaRPC.Endpoint, refusal: deltaFails, fail: deltaFails},
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

			// The garbage claims a 4 GiB frame, so every decoder refuses
			// it by the frame's own size check before reading further.
			g := &garbagePost{handler: side.handler, size: row.ep.Cap + 2}
			hc := &http.Client{Transport: g}
			if row.refusal == nil {
				resp, err := hc.Post("http://in-process"+row.ep.Path, "application/octet-stream", nil)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if g.code != http.StatusBadRequest {
					t.Errorf("%s: garbage body answered %d, want 400", name, g.code)
				}
			} else if err := row.refusal(&wire.Client{BaseURL: "http://in-process", HTTP: hc}); g.code != http.StatusOK ||
				err == nil || !strings.Contains(err.Error(), " error: "+wire.ErrFrameTooBig.Error()) {
				t.Errorf("%s: garbage body answered %d and the caller read %v, want an in-band refusal", name, g.code, err)
			}
			var tooLarge *http.MaxBytesError
			if _, err := io.Copy(io.Discard, g.req.Body); !errors.As(err, &tooLarge) || tooLarge.Limit != row.ep.Cap {
				t.Errorf("%s: draining the handler's body = %v, want a %d-byte cap", name, err, row.ep.Cap)
			}
			if g.body.read > row.ep.Cap+1 {
				t.Errorf("%s: read %d bytes of an oversize body, cap is %d", name, g.body.read, row.ep.Cap)
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
			if err := wire.WriteStreamRequest(&body, &req); err != nil {
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
