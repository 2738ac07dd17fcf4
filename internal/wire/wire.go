// Package wire provides serialization and the HTTP transport of the
// data-publishing deployment (Figure 3): the owner ships a publication
// file of signed slices to publishers; publishers answer every query
// over HTTP as one stream of chunk frames (stream.go); users verify
// client-side with the owner's public key. Everything that crosses the
// network and everything kept on disk — the owner's files and the
// store's log records (disk.go) — is in one field codec (frame.go);
// the one exception is the legacy gob /stream request streamgob.go
// still reads. Nothing in the transport is trusted — all integrity comes
// from the verification objects.
package wire

import (
	"net/http"

	"vcqr/internal/delta"
)

// DeltaResponse acknowledges a delta ingest with the publisher's new
// epoch, or reports why the batch was rejected (validation failures
// leave the published epoch untouched).
type DeltaResponse struct {
	Epoch uint64
	Err   string
}

// Client queries a remote publisher.
type Client struct {
	BaseURL string
	HTTP    *http.Client

	// Trace, when non-empty, stamps outgoing streaming requests with a
	// caller-chosen trace ID; empty lets the server mint one. Timing asks
	// streaming servers for the advisory per-stage timing trailer
	// (surfaced in StreamStats).
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

// SendDelta pushes an owner update batch to the publisher's ingest
// endpoint and returns the publisher's new epoch.
func (c *Client) SendDelta(d delta.Delta) (uint64, error) {
	out, err := DeltaRPC.Call(c, d)
	return out.Epoch, err
}
