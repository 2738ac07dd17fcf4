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
