package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"

	"vcqr/internal/accessctl"
	"vcqr/internal/engine"
	"vcqr/internal/obs"
	"vcqr/internal/verify"
)

// WriteChunkFrame writes one result-stream chunk as a frame;
// ReadChunkFrame is its counterpart. Nothing of c is retained.
func WriteChunkFrame(w io.Writer, c *engine.Chunk) error {
	return encodeFrame(w, c, MaxChunkFrame, appendChunk)
}

// ReadChunkFrame reads one chunk frame. It returns io.EOF exactly at a
// frame boundary (the clean end of a stream) and ErrFrameTruncated when
// the stream dies mid-frame.
//
// Ownership: the payload is read into a buffer no one else holds — never
// pooled, never the caller's memory — and every digest, signature and
// byte value of the returned chunk aliases it (strings are copied). The
// returned value owns that one buffer; retaining any digest retains the
// frame, and whoever wants to change decoded material clones it first.
func ReadChunkFrame(r io.Reader) (*engine.Chunk, error) { return fresh(r, readChunkFrame) }

func readChunkFrame(r io.Reader, c *engine.Chunk) error {
	return decodeFrame(r, c, MaxChunkFrame, (*decoder).chunk)
}

// StreamRequest asks a publisher to answer a query as a chunk stream.
type StreamRequest struct {
	Role  string
	Query engine.Query
	// ChunkRows bounds entries per chunk; 0 lets the publisher choose.
	ChunkRows int

	// Trace is an optional client-supplied trace ID; empty lets the
	// serving entry point mint one (internal/obs). Trace IDs are advisory
	// and never part of the verified material.
	Trace string
	// Timing asks the server to append an advisory engine.ChunkTiming
	// trailer after the footer carrying the per-stage latency breakdown.
	// A client that leaves it unset never sees one.
	Timing bool
}

// WriteStreamRequest writes a /stream request body: one field-codec
// frame, what Client sends and what a hand-built request should send.
func WriteStreamRequest(w io.Writer, req *StreamRequest) error { return streamRequestBody.w(w, req) }

// WriteStream drains a result stream into w as chunk frames, flushing
// after every frame when w supports it (http.Flusher or *bufio.Writer),
// so each chunk reaches the network without waiting for the next.
// Publisher-side errors after the first frame are sent in-band as a
// ChunkError frame — the HTTP status is long gone by then.
func WriteStream(w io.Writer, st engine.ResultStream) error {
	// Merged streams hold per-shard feeds; release them if the drain
	// aborts early (a fully drained stream's Close is a no-op).
	if c, ok := st.(io.Closer); ok {
		defer c.Close()
	}
	flush := func() {}
	switch f := w.(type) {
	case http.Flusher:
		flush = f.Flush
	case *bufio.Writer:
		flush = func() { f.Flush() }
	}
	for {
		c, err := st.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			ec := &engine.Chunk{Type: engine.ChunkError, Err: err.Error()}
			if werr := WriteChunkFrame(w, ec); werr != nil {
				return werr
			}
			flush()
			return err
		}
		if err := WriteChunkFrame(w, c); err != nil {
			return err
		}
		flush()
	}
}

// SplitChunkFrame splits the chunk frame b opens with off it, returning
// that frame's chunk type and the bytes after it; ok is false when b
// does not open with a whole frame of a non-empty payload within
// MaxChunkFrame. Only the length prefix and the tag byte are read,
// nothing is decoded: it lets the edge cache check the shape of bytes an
// untrusted peer returned — what the frames say is the user's verifier's
// to judge.
func SplitChunkFrame(b []byte) (typ engine.ChunkType, rest []byte, ok bool) {
	if len(b) <= frameHeader {
		return 0, nil, false
	}
	n := int(binary.BigEndian.Uint32(b))
	if n <= 0 || n > MaxChunkFrame || n > len(b)-frameHeader {
		return 0, nil, false
	}
	return engine.ChunkType(b[frameHeader] - tagChunk), b[frameHeader+n:], true
}

// StreamStats reports transport-level accounting for one streamed query.
type StreamStats struct {
	// Chunks counts frames consumed (header + entries + footer).
	Chunks int
	// Bytes counts frame payload bytes plus length prefixes.
	Bytes int64
	// Rows counts verified rows delivered to the callback.
	Rows int

	// Trace and Timing echo the server's advisory timing trailer when the
	// client requested one (Client.Timing); both stay zero otherwise.
	// Neither is verified — they are operational data for vcquery -timing
	// and friends, not evidence.
	Trace  string
	Timing []obs.StageDur
}

// countingReader tallies bytes as frames are read.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// QueryStream sends a streaming query and feeds every received chunk
// through an incremental verifier, invoking fn (when non-nil) for each
// result row as the verifier releases it. It returns only after the
// stream is fully verified — a nil error means exactly what a nil error
// from Query + VerifyResult means, but the rows were delivered (and the
// publisher's memory stayed) chunk by chunk. On any verification or
// transport failure the callback stops and the error reports what broke.
//
// Note the streaming trust caveat: with condensed signatures the rows
// delivered before the footer are chain-consistent but only anchored to
// the owner's key when QueryStream returns nil. Callers that must not
// act on provisional rows should buffer until it returns.
func (c *Client) QueryStream(v *verify.Verifier, role accessctl.Role, roleName string, q engine.Query, chunkRows int, fn func(engine.Row) error) (StreamStats, error) {
	return c.QueryStreamWith(v.NewStreamVerifier(q, role), roleName, q, chunkRows, fn)
}

// QueryStreamWith is QueryStream over an explicit chunk verifier — the
// seam that lets partitioned publications plug in the shard-aware
// verifier (verify.ShardStreamVerifier) while unpartitioned clients keep
// the plain incremental one. The verifier must be fresh: it is consumed
// by this one stream.
func (c *Client) QueryStreamWith(sv verify.ChunkVerifier, roleName string, q engine.Query, chunkRows int, fn func(engine.Row) error) (StreamStats, error) {
	var stats StreamStats
	body, err := StreamEP.open(c, StreamRequest{Role: roleName, Query: q, ChunkRows: chunkRows,
		Trace: c.Trace, Timing: c.Timing})
	if err != nil {
		return stats, err
	}
	defer body.Close()

	cr := &countingReader{r: body}
	for {
		chunk, err := ReadChunkFrame(cr)
		if err == io.EOF {
			break
		}
		if err != nil {
			return stats, err
		}
		if chunk.Type == engine.ChunkTiming {
			// Advisory trailer (sent only because this client asked):
			// surface it in the stats, never feed it to the verifier — it
			// is not part of the result and the verifier would reject any
			// chunk after the footer.
			stats.Trace = chunk.Trace
			stats.Timing = chunk.Timing
			continue
		}
		stats.Chunks++
		stats.Bytes = cr.n
		rows, err := sv.Consume(chunk)
		if err != nil {
			return stats, err
		}
		for _, row := range rows {
			stats.Rows++
			if fn != nil {
				if err := fn(row); err != nil {
					return stats, err
				}
			}
		}
	}
	stats.Bytes = cr.n
	if err := sv.Finish(); err != nil {
		return stats, err
	}
	return stats, nil
}

// errResultTooBig refuses a stream whose frames add up to more than a
// materialized result may hold.
var errResultTooBig = errors.New("wire: collected result exceeds size limit")

// Query answers q as one materialized result: the frames of one /stream
// reply, collected. The result is NOT verified; callers pass it to
// verify.Verifier.VerifyResult. The publisher is untrusted and a stream
// has no length, so the collection is bounded at MaxDeltaBody (plus the
// frame that crosses it); QueryStream holds one chunk at a time and needs
// no such bound.
func (c *Client) Query(role string, q engine.Query) (*engine.Result, error) {
	return c.collect(role, q, MaxDeltaBody)
}

func (c *Client) collect(role string, q engine.Query, limit int64) (*engine.Result, error) {
	body, err := StreamEP.open(c, StreamRequest{Role: role, Query: q, Trace: c.Trace})
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return engine.Collect(&frameStream{cr: countingReader{r: body}, limit: limit})
}

// frameStream reads a reply body as the engine.ResultStream the
// publisher drained into it, refusing once more than limit bytes came.
type frameStream struct {
	cr    countingReader
	limit int64
}

func (f *frameStream) Next() (*engine.Chunk, error) {
	c, err := ReadChunkFrame(&f.cr)
	if err == nil && f.cr.n > f.limit {
		return nil, fmt.Errorf("%w: more than %d bytes", errResultTooBig, f.limit)
	}
	return c, err
}
