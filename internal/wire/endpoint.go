package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"vcqr/internal/delta"
)

// This file is the transport's one envelope. Every endpoint of the
// protocol is declared exactly once, in the table below — its path, its
// request and reply types, how large a request it reads and how large a
// reply its caller accepts — and both sides derive from that row: the
// Client methods are one-liners over Call/open, and the serving packages
// Mount their handlers on it without naming a path, a cap, an HTTP
// method, a status or a codec. Request and reply bodies are gob unless a
// row says otherwise, which makes the codec a decision held by this
// package alone.
//
// Errors travel in two places, by row: a malformed request is refused
// on the status line (400) by the stream endpoints and the cache peer,
// and inside the reply's Err field by everything else; a handler's own
// error always travels in the reply's Err field, and Call turns a
// non-empty Err back into a Go error carrying the remote text verbatim
// (which is what keeps IsNotHosting's substring contract).

// Request body caps. Queries and shard references are small by
// construction; a delta batch legitimately carries signed records but
// still bounded — anything larger than this should ship as a snapshot,
// not a delta.
const (
	MaxQueryBody = 1 << 20
	MaxDeltaBody = 256 << 20
)

// Who serves an endpoint, as client-side errors name it.
const (
	publisher = "publisher"
	node      = "node"
	cachePeer = "cache peer"
)

// The endpoint table. Replies are capped too: the peer is untrusted, and
// gob alone would buffer up to 1 GiB of whatever it sends. Every unary
// reply fits one frame; anything larger is a frame stream.
var (
	DeltaRPC = &RPC[delta.Delta, DeltaResponse]{Endpoint: Endpoint{"/delta", MaxDeltaBody, publisher}, ReplyCap: MaxChunkFrame}

	ShardEdgesRPC  = &RPC[ShardRef, EdgeResponse]{Endpoint: Endpoint{"/shard/edges", MaxQueryBody, node}, ReplyCap: MaxChunkFrame}
	ShardDigestRPC = &RPC[ShardRef, DigestResponse]{Endpoint: Endpoint{"/shard/digest", MaxQueryBody, node}, ReplyCap: MaxChunkFrame}
	ShardRemoveRPC = &RPC[ShardRef, OKResponse]{Endpoint: Endpoint{"/shard/remove", MaxQueryBody, node}, ReplyCap: MaxChunkFrame}
	HostedRPC      = &RPC[struct{}, HostedResponse]{Endpoint: Endpoint{"/node/hosted", MaxQueryBody, node}, ReplyCap: MaxChunkFrame}
	NodeDeltaRPC   = &RPC[NodeDeltaRequest, NodeDeltaResponse]{Endpoint: Endpoint{"/node/delta", MaxDeltaBody, node}, ReplyCap: MaxChunkFrame}
	NodeMirrorRPC  = &RPC[MirrorRequest, MirrorResponse]{Endpoint: Endpoint{"/node/mirror", MaxDeltaBody, node}, ReplyCap: MaxChunkFrame}
	NodeTxRPC      = &RPC[TxRequest, OKResponse]{Endpoint: Endpoint{"/node/tx", MaxQueryBody, node}, ReplyCap: MaxChunkFrame}

	// ShardInstallRPC's request is a raw transfer-frame stream (see
	// ReadShardTransfer), piped through unbuffered; NodeLeaseRPC and
	// CacheRPC ride the frame codecs in both directions, so their decode
	// surfaces are the fuzzed ones.
	ShardInstallRPC = &RPC[io.Reader, OKResponse]{Endpoint: Endpoint{"/shard/install", MaxDeltaBody, node}, ReplyCap: MaxChunkFrame,
		req: codec[io.Reader]{r: func(r io.Reader, v *io.Reader) error { *v = r; return nil }}}
	NodeLeaseRPC = &RPC[LeaseRequest, LeaseResponse]{Endpoint: Endpoint{"/node/lease", MaxQueryBody, node}, ReplyCap: MaxQueryBody,
		req:  codec[LeaseRequest]{writeFrame[LeaseRequest], readFrame[LeaseRequest]},
		resp: codec[LeaseResponse]{writeFrame[LeaseResponse], readFrame[LeaseResponse]}}
	CacheRPC = &RPC[CacheFrame, CacheReply]{Endpoint: Endpoint{"/cache", MaxChunkFrame + frameHeader, cachePeer}, ReplyCap: MaxChunkFrame + frameHeader, status400: true,
		req:  codec[CacheFrame]{WriteCacheFrame, readCacheFrame},
		resp: codec[CacheReply]{WriteCacheReply, readCacheReply}}

	// The endpoints whose reply is a frame stream the caller consumes as
	// it arrives.
	StreamEP      = &Stream[StreamRequest]{Endpoint{"/stream", MaxQueryBody, publisher}}
	ShardStreamEP = &Stream[ShardStreamRequest]{Endpoint{"/shard/stream", MaxQueryBody, node}}
	ShardFetchEP  = &Stream[ShardRef]{Endpoint{"/shard/fetch", MaxQueryBody, node}}
)

// Endpoint is what every POST endpoint declares: where it is mounted,
// how many request-body bytes its handler will read, and who serves it.
type Endpoint struct {
	Path string
	Cap  int64
	peer string
}

// PostOnly refuses every method but POST with 405.
func PostOnly(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		next(w, r)
	}
}

// handler is the server half every endpoint shares: POST only, and the
// untrusted request body bounded at e.Cap so one client cannot buffer
// the process into OOM (gob's own limit is 1 GiB per message).
func (e Endpoint) handler(next http.HandlerFunc) http.Handler {
	return PostOnly(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, e.Cap)
		w.Header().Set("Content-Type", "application/octet-stream")
		next(w, r)
	})
}

// post is the client half every endpoint shares: POST the body, insist
// on 200. The caller owns (and must close) the returned reply body.
func (c *Client) post(e Endpoint, body io.Reader) (io.ReadCloser, error) {
	resp, err := c.httpClient().Post(c.BaseURL+e.Path, "application/octet-stream", body)
	if err != nil {
		return nil, fmt.Errorf("wire: post %s: %w", e.Path, err)
	}
	if err := statusOK(resp, e.peer, e.Path); err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// statusOK turns a non-200 response into an error quoting the peer's
// message, closing the body; a 200 passes through untouched.
func statusOK(resp *http.Response, peer, path string) error {
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	return fmt.Errorf("wire: %s returned %s on %s: %s", peer, resp.Status, path, strings.TrimSpace(string(msg)))
}

// remoteErr is the one place an in-band refusal string becomes a Go
// error; the remote text is kept verbatim.
func remoteErr(peer, msg string) error {
	if msg == "" {
		return nil
	}
	return fmt.Errorf("wire: %s error: %s", peer, msg)
}

// refuser is implemented by every reply type with an Err field.
type refuser interface{ refusal() *string }

func (r *DeltaResponse) refusal() *string     { return &r.Err }
func (r *EdgeResponse) refusal() *string      { return &r.Err }
func (r *DigestResponse) refusal() *string    { return &r.Err }
func (r *HostedResponse) refusal() *string    { return &r.Err }
func (r *OKResponse) refusal() *string        { return &r.Err }
func (r *NodeDeltaResponse) refusal() *string { return &r.Err }
func (r *MirrorResponse) refusal() *string    { return &r.Err }
func (r *LeaseResponse) refusal() *string     { return &r.Err }
func (r *CacheReply) refusal() *string        { return &r.Err }

// codec is one direction of an exchange: how a value becomes body bytes
// and back. The zero codec is gob.
type codec[T any] struct {
	w func(io.Writer, *T) error
	r func(io.Reader, *T) error
}

func (c codec[T]) write(w io.Writer, v *T) error {
	if c.w == nil {
		return gob.NewEncoder(w).Encode(v)
	}
	return c.w(w, v)
}

func (c codec[T]) read(r io.Reader, v *T) error {
	if c.r == nil {
		return gob.NewDecoder(r).Decode(v)
	}
	return c.r(r, v)
}

// requestBody encodes one request for posting. A request that already is
// a byte stream (a shard transfer) is piped through as it stands.
func requestBody[T any](c codec[T], path string, req *T) (io.Reader, error) {
	if raw, ok := any(*req).(io.Reader); ok {
		return raw, nil
	}
	var buf bytes.Buffer
	if err := c.write(&buf, req); err != nil {
		return nil, fmt.Errorf("wire: encode %s request: %w", path, err)
	}
	return &buf, nil
}

// RPC is one unary endpoint: a Req in, a Resp out.
type RPC[Req, Resp any] struct {
	Endpoint
	// ReplyCap bounds the reply bytes Call reads from the untrusted peer.
	ReplyCap int64
	// status400 refuses a malformed request on the status line instead of
	// in the reply's Err field.
	status400 bool
	req       codec[Req]
	resp      codec[Resp]
}

// Call runs one exchange against c's peer: encode, POST, status check,
// capped decode, and the reply's Err field (if it has one) as a Go error.
// The reply is returned alongside a refusal, for callers that read its
// other fields.
func (e *RPC[Req, Resp]) Call(c *Client, req Req) (Resp, error) {
	var out, zero Resp
	body, err := requestBody(e.req, e.Path, &req)
	if err != nil {
		return zero, err
	}
	reply, err := c.post(e.Endpoint, body)
	if err != nil {
		return zero, err
	}
	defer reply.Close()
	lr := &io.LimitedReader{R: reply, N: e.ReplyCap + 1}
	err = e.resp.read(lr, &out)
	if lr.N <= 0 {
		return zero, fmt.Errorf("wire: %s reply on %s exceeds the %d-byte cap", e.peer, e.Path, e.ReplyCap)
	}
	if err != nil {
		return zero, fmt.Errorf("wire: decode %s reply: %w", e.Path, err)
	}
	if r, ok := any(&out).(refuser); ok {
		return out, remoteErr(e.peer, *r.refusal())
	}
	return out, nil
}

// Mount registers the endpoint's handler on mux: POST only, capped body,
// decode, run, encode. An error from run — or a malformed request, on
// the rows that refuse those in-band — is written into the reply's Err
// field and counted on errs (nil when run keeps its own count).
func (e *RPC[Req, Resp]) Mount(mux *http.ServeMux, run func(Req) (Resp, error), errs *atomic.Uint64) {
	mux.Handle(e.Path, e.handler(func(w http.ResponseWriter, r *http.Request) {
		var req Req
		var resp Resp
		err := e.req.read(r.Body, &req)
		if err != nil && e.status400 {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err == nil {
			resp, err = run(req)
		}
		if err != nil {
			if errs != nil {
				errs.Add(1)
			}
			rf, ok := any(&resp).(refuser)
			if !ok {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			*rf.refusal() = err.Error()
		}
		if err := e.resp.write(w, &resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}))
}

// Stream is one endpoint whose reply is a frame stream: a gob Req in,
// frames out until the handler returns.
type Stream[Req any] struct{ Endpoint }

// open posts the request and returns the reply body positioned at its
// first frame; the caller must close it.
func (e *Stream[Req]) open(c *Client, req Req) (io.ReadCloser, error) {
	body, err := requestBody(codec[Req]{}, e.Path, &req)
	if err != nil {
		return nil, err
	}
	return c.post(e.Endpoint, body)
}

// Mount registers the endpoint's handler on mux: POST only, capped body,
// a malformed request refused with 400, then serve owns the response.
// Failures before serve's first frame may still use the status line;
// later ones travel in-band.
func (e *Stream[Req]) Mount(mux *http.ServeMux, serve func(http.ResponseWriter, Req)) {
	mux.Handle(e.Path, e.handler(func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := (codec[Req]{}).read(r.Body, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		serve(w, req)
	}))
}
