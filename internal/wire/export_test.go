package wire

import (
	"io"

	"vcqr/internal/engine"
)

// ErrMalformed lets the external tests name the unexported sentinel every
// payload decoder refuses a malformed frame with.
var ErrMalformed = errMalformed

// ErrResultTooBig and QueryCapped let the external tests drive
// Client.Query's collection bound at a cap small enough to run in a unit
// test.
var ErrResultTooBig = errResultTooBig

func (c *Client) QueryCapped(role string, q engine.Query, limit int64) (*engine.Result, error) {
	return c.collect(role, q, limit)
}

// Body is one row's body codec as the Write/Read pair the external tests
// drive, read off the endpoint table itself.
type Body[T any] struct {
	Write func(io.Writer, *T) error
	Read  func(io.Reader) (*T, error)
}

func bodyOf[T any](c codec[T]) Body[T] {
	return Body[T]{c.w, func(r io.Reader) (*T, error) { return fresh(r, c.r) }}
}

var (
	StreamRequestBody      = bodyOf(StreamEP.req)
	ShardStreamRequestBody = bodyOf(ShardStreamEP.req)
	ShardRefBody           = bodyOf(ShardEdgesRPC.req)
	DeltaBody              = bodyOf(DeltaRPC.req)
	NodeDeltaRequestBody   = bodyOf(NodeDeltaRPC.req)
	MirrorRequestBody      = bodyOf(NodeMirrorRPC.req)
	TxRequestBody          = bodyOf(NodeTxRPC.req)
	HostedRequestBody      = bodyOf(HostedRPC.req)

	DeltaResponseBody     = bodyOf(DeltaRPC.resp)
	EdgeResponseBody      = bodyOf(ShardEdgesRPC.resp)
	DigestResponseBody    = bodyOf(ShardDigestRPC.resp)
	HostedResponseBody    = bodyOf(HostedRPC.resp)
	OKResponseBody        = bodyOf(NodeTxRPC.resp)
	NodeDeltaResponseBody = bodyOf(NodeDeltaRPC.resp)
	MirrorResponseBody    = bodyOf(NodeMirrorRPC.resp)

	TransferFrameBody = bodyOf(codec[TransferFrame]{writeTransferFrame, readTransferFrame})
)

// Recycler reads frames through one recycling frame reader, as
// QueryStreamWith does.
type Recycler struct {
	fr frameReader
	r  io.Reader
}

func NewRecycler(r io.Reader) *Recycler { return &Recycler{r: r} }

func (rc *Recycler) Next() (*engine.Chunk, error) { return rc.fr.readChunk(rc.r) }

// NextNode reads a sub-stream frame, as a NodeStream opened to drain does.
func (rc *Recycler) NextNode() (*NodeFrame, error) {
	f := new(NodeFrame)
	return f, rc.fr.readNode(rc.r, f)
}

// Reserved is the capacity of the reader's payload buffer.
func (rc *Recycler) Reserved() int { return cap(rc.fr.buf) }

const FrameReadAhead = frameReadAhead

// DrainingNodeStream is the NodeStream ShardStream(req, true) opens, over
// r, past its hello.
func DrainingNodeStream(r io.Reader) *NodeStream {
	return &NodeStream{body: io.NopCloser(r), fr: new(frameReader)}
}

// The client parameters file's codec, over bytes rather than a path.
var (
	AppendClientParams = appendClientParams
	DecodeClientParams = decodeClientParams
)

// The heartbeat codec and the cache reply reader, as the fuzz and
// round-trip tests drive them: one framed value per call.
func WriteLeaseRequest(w io.Writer, req *LeaseRequest) error { return leaseRequestBody.w(w, req) }

func ReadLeaseRequest(r io.Reader) (*LeaseRequest, error) { return fresh(r, leaseRequestBody.r) }

func WriteLeaseResponse(w io.Writer, resp *LeaseResponse) error { return leaseResponseBody.w(w, resp) }

func ReadLeaseResponse(r io.Reader) (*LeaseResponse, error) { return fresh(r, leaseResponseBody.r) }

func ReadCacheReply(r io.Reader) (*CacheReply, error) { return fresh(r, readCacheReply) }
