// Package wire provides serialization and the HTTP transport of the
// data-publishing deployment (Figure 3): the owner ships gob-encoded
// signed relations to publishers; publishers answer queries over HTTP
// with gob-encoded results; users verify client-side with the owner's
// public key. Nothing in the transport is trusted — all integrity comes
// from the verification objects.
package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"os"
	"strings"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
)

// Snapshot is the on-disk publication format vcsign writes and vcserve
// loads: either a plain signed relation or a partitioned set. The
// encoding is a short magic prefix followed by gob, so pre-partitioning
// snapshot files (bare gob relations) remain loadable via the fallback
// in DecodeSnapshot.
type Snapshot struct {
	Relation  *core.SignedRelation
	Partition *partition.Set
}

// snapMagic prefixes Snapshot encodings; bare-relation files (the
// pre-partitioning format) lack it.
var snapMagic = []byte("vcqr-snapshot-1\n")

// EncodeSnapshot serializes a publication snapshot.
func EncodeSnapshot(snap *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(snapMagic)
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("wire: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot deserializes a publication snapshot, transparently
// accepting the legacy bare-relation format. Publishers must still
// validate the contents against the owner's public key.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if !bytes.HasPrefix(data, snapMagic) {
		sr, err := DecodeRelation(data)
		if err != nil {
			return nil, err
		}
		return &Snapshot{Relation: sr}, nil
	}
	var snap Snapshot
	if err := gob.NewDecoder(bytes.NewReader(data[len(snapMagic):])).Decode(&snap); err != nil {
		return nil, fmt.Errorf("wire: decode snapshot: %w", err)
	}
	return &snap, nil
}

// ClientParams is everything a user needs from the owner over an
// authenticated channel to verify results: the public key, the domain
// parameters, the schema, and the role definitions (so the user can check
// query rewrites against their own rights).
type ClientParams struct {
	N      *big.Int
	E      int
	Params core.Params
	Schema relation.Schema
	Roles  map[string]accessctl.Role
	// Partition is the shard layout when the publication is
	// range-partitioned, nil otherwise. It is advisory for soundness (the
	// signature chain alone proves completeness) but lets stream clients
	// run the fail-fast shard hand-off checks of
	// verify.ShardStreamVerifier.
	Partition *partition.Spec
}

// WriteClientParams writes the parameters file the owner distributes.
func WriteClientParams(path string, cp ClientParams) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("wire: write params: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(cp); err != nil {
		f.Close()
		return fmt.Errorf("wire: encode params: %w", err)
	}
	return f.Close()
}

// ReadClientParams loads a parameters file.
func ReadClientParams(path string) (ClientParams, error) {
	f, err := os.Open(path)
	if err != nil {
		return ClientParams{}, fmt.Errorf("wire: read params: %w", err)
	}
	defer f.Close()
	var cp ClientParams
	if err := gob.NewDecoder(f).Decode(&cp); err != nil {
		return ClientParams{}, fmt.Errorf("wire: decode params: %w", err)
	}
	return cp, nil
}

// EncodeRelation serializes a signed relation for distribution.
func EncodeRelation(sr *core.SignedRelation) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sr); err != nil {
		return nil, fmt.Errorf("wire: encode relation: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeRelation deserializes a signed relation. Publishers must still
// Validate it against the owner's public key.
func DecodeRelation(data []byte) (*core.SignedRelation, error) {
	var sr core.SignedRelation
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&sr); err != nil {
		return nil, fmt.Errorf("wire: decode relation: %w", err)
	}
	return &sr, nil
}

// Request is a query addressed to a publisher.
type Request struct {
	Role  string
	Query engine.Query
}

// Response wraps either a result or a publisher-side error message.
type Response struct {
	Result *engine.Result
	Err    string
}

// BatchRequest carries several queries for one role in a single round
// trip — amortizing transport and letting the publisher serve all of
// them from one epoch snapshot.
type BatchRequest struct {
	Role    string
	Queries []engine.Query
}

// BatchResponse returns one Response per query, in order. Individual
// failures do not fail the batch.
type BatchResponse struct {
	Items []Response
}

// DeltaResponse acknowledges a delta ingest with the publisher's new
// epoch, or reports why the batch was rejected (validation failures
// leave the published epoch untouched).
type DeltaResponse struct {
	Epoch uint64
	Err   string
}

// DecodeDelta deserializes an update batch. Publishers must still apply
// it through delta.Apply, which validates against the owner's key.
func DecodeDelta(data []byte) (delta.Delta, error) {
	var d delta.Delta
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&d); err != nil {
		return delta.Delta{}, fmt.Errorf("wire: decode delta: %w", err)
	}
	return d, nil
}

// EncodeResult and DecodeResult serialize publisher responses.
func EncodeResult(res *engine.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(Response{Result: res}); err != nil {
		return nil, fmt.Errorf("wire: encode result: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeResult deserializes a publisher response.
func DecodeResult(data []byte) (*engine.Result, error) {
	var resp Response
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&resp); err != nil {
		return nil, fmt.Errorf("wire: decode result: %w", err)
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("wire: publisher error: %s", resp.Err)
	}
	return resp.Result, nil
}

// QueryHandler returns the POST /query endpoint over any query executor
// (engine.Publisher.Execute, server.Server.Query) — one implementation
// of the wire protocol shared by every front end.
func QueryHandler(exec func(role string, q engine.Query) (*engine.Result, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Request
		if err := gob.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var resp Response
		res, err := exec(req.Role, req.Query)
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.Result = res
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := gob.NewEncoder(w).Encode(resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

// Request body caps, one definition for the server, node and
// coordinator handlers. Queries and batches are small by construction; a
// delta batch legitimately carries signed records but still bounded —
// anything larger than this should ship as a snapshot, not a delta.
const (
	MaxQueryBody = 1 << 20
	MaxBatchBody = 8 << 20
	MaxDeltaBody = 256 << 20
)

// CapBody bounds an untrusted request body so one client cannot buffer
// the publisher into OOM (gob's own limit is 1 GiB per message).
func CapBody(limit int64, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
		next.ServeHTTP(w, r)
	})
}

// Client queries a remote publisher.
type Client struct {
	BaseURL string
	HTTP    *http.Client

	// Trace, when non-empty, stamps outgoing streaming requests with a
	// caller-chosen trace ID; empty lets the server mint one. Timing asks
	// streaming servers for the advisory per-stage timing trailer
	// (surfaced in StreamStats). Both are optional wire fields old
	// servers ignore.
	Trace  string
	Timing bool
}

// httpClient is the transport every request of this client runs on.
func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// postGob posts a gob request and decodes a gob response.
func (c *Client) postGob(path string, req, resp any) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(req); err != nil {
		return fmt.Errorf("wire: encode request: %w", err)
	}
	hresp, err := c.httpClient().Post(c.BaseURL+path, "application/octet-stream", &body)
	if err != nil {
		return fmt.Errorf("wire: post %s: %w", path, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 1024))
		return fmt.Errorf("wire: POST %s returned %s: %s", path, hresp.Status, strings.TrimSpace(string(msg)))
	}
	if err := gob.NewDecoder(hresp.Body).Decode(resp); err != nil {
		return fmt.Errorf("wire: decode %s response: %w", path, err)
	}
	return nil
}

// Query sends a request and decodes the response. The result is NOT
// verified; callers pass it to verify.Verifier.
func (c *Client) Query(role string, q engine.Query) (*engine.Result, error) {
	var out Response
	if err := c.postGob("/query", Request{Role: role, Query: q}, &out); err != nil {
		return nil, err
	}
	if out.Err != "" {
		return nil, fmt.Errorf("wire: publisher error: %s", out.Err)
	}
	return out.Result, nil
}

// QueryBatch sends several queries in one round trip. It returns one
// result or error per query; the returned error covers transport-level
// failures only.
func (c *Client) QueryBatch(role string, qs []engine.Query) ([]*engine.Result, []error, error) {
	var out BatchResponse
	if err := c.postGob("/batch", BatchRequest{Role: role, Queries: qs}, &out); err != nil {
		return nil, nil, err
	}
	if len(out.Items) != len(qs) {
		return nil, nil, fmt.Errorf("wire: %d batch items for %d queries", len(out.Items), len(qs))
	}
	results := make([]*engine.Result, len(qs))
	errs := make([]error, len(qs))
	for i, item := range out.Items {
		if item.Err != "" {
			errs[i] = fmt.Errorf("wire: publisher error: %s", item.Err)
			continue
		}
		results[i] = item.Result
	}
	return results, errs, nil
}

// SendDelta pushes an owner update batch to the publisher's ingest
// endpoint and returns the publisher's new epoch.
func (c *Client) SendDelta(d delta.Delta) (uint64, error) {
	var out DeltaResponse
	if err := c.postGob("/delta", d, &out); err != nil {
		return 0, err
	}
	if out.Err != "" {
		return 0, fmt.Errorf("wire: publisher rejected delta: %s", out.Err)
	}
	return out.Epoch, nil
}
