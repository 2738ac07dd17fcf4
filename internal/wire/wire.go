// Package wire provides serialization and the HTTP transport of the
// data-publishing deployment (Figure 3): the owner ships gob-encoded
// signed relations to publishers; publishers answer every query over
// HTTP as one stream of chunk frames (stream.go); users verify
// client-side with the owner's public key. Everything that crosses the
// network is a field-codec frame (frame.go); gob is left to the files
// of this one (snapshots, parameters, relations) and to the one legacy
// /stream request format below. Nothing in the transport is trusted —
// all integrity comes from the verification objects.
package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"os"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/delta"
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

// readStreamRequest reads a /stream request body: a field-codec frame
// (WriteStreamRequest, what Client sends), or a gob-encoded StreamRequest
// as clients built before the field codec send it. The first byte tells
// them apart: a frame opens with its 4-byte big-endian length, which
// under MaxQueryBody starts with 0x00, and a gob stream opens with a
// message length, which never is 0. The gob branch is the one request
// format still read as gob; it goes once the last gob writer (bench's
// traced client) moves onto WriteStreamRequest.
func readStreamRequest(r io.Reader, req *StreamRequest) error {
	var first [1]byte
	if _, err := io.ReadFull(r, first[:]); err != nil {
		return err
	}
	r = io.MultiReader(bytes.NewReader(first[:]), r)
	if first[0] == 0 {
		return streamRequestBody.r(r, req)
	}
	if err := gob.NewDecoder(r).Decode(req); err != nil {
		return fmt.Errorf("wire: decode gob stream request: %w", err)
	}
	return nil
}

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
