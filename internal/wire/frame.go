package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Framing: every streamed payload of the protocol — result chunks, node
// sub-stream frames, shard transfers, heartbeats, cache operations —
// travels as one self-delimiting frame: a 4-byte big-endian length
// followed by that many payload bytes. Frames are independently
// decodable, so a reader can resynchronize per frame, bound its memory
// by MaxChunkFrame, and hand each payload on the moment it arrives.
// Nothing in the framing is trusted: truncation, reordering and
// tampering are all caught by the verification layer; the frame format
// only needs to fail cleanly. This file holds the one header writer and
// the one header reader; the typed frames are thin codecs over them.

// MaxChunkFrame bounds one frame's payload. An engine chunk holds at
// most MaxChunkRows entries of digests and values; anything larger is a
// malformed or malicious stream, rejected before allocation.
const MaxChunkFrame = 64 << 20

// Framing errors.
var (
	// ErrFrameTooBig reports a length prefix beyond MaxChunkFrame.
	ErrFrameTooBig = errors.New("wire: chunk frame exceeds size limit")
	// ErrFrameTruncated reports a stream that ended inside a frame.
	ErrFrameTruncated = errors.New("wire: chunk frame truncated")
)

// frameHeader is the length prefix every frame opens with; encoders
// reserve it up front so header and payload leave in one Write.
const frameHeader = 4

// frameReadAhead bounds what a frame's claimed length may reserve before
// its bytes arrive: a lying prefix over a short stream costs this much,
// never MaxChunkFrame. Sized above a typical cached sub-stream, so an
// honest cache frame still lands in one exact allocation.
const frameReadAhead = 128 << 10

// sealFrame patches the length prefix into b — frameHeader reserved
// bytes followed by the payload — and writes the whole frame.
func sealFrame(w io.Writer, b []byte) error {
	n := len(b) - frameHeader
	if n > MaxChunkFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	binary.BigEndian.PutUint32(b[:frameHeader], uint32(n))
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// openFrame reads one frame's payload into body. It returns io.EOF
// exactly at a frame boundary (the clean end of a stream),
// ErrFrameTruncated when the stream dies mid-frame and ErrFrameTooBig on
// a length prefix beyond the cap. The payload is copied incrementally
// rather than into a buffer of the claimed length, so the claim itself
// allocates at most frameReadAhead.
func openFrame(r io.Reader, body *bytes.Buffer) error {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("%w: length prefix: %v", ErrFrameTruncated, err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxChunkFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	// bytes.Buffer.ReadFrom wants MinRead spare bytes before every read,
	// the last one included; reserving them here keeps an exact-fit
	// payload to one allocation.
	body.Grow(int(min(n, frameReadAhead)) + bytes.MinRead)
	if _, err := io.CopyN(body, r, int64(n)); err != nil {
		return fmt.Errorf("%w: body: %v", ErrFrameTruncated, err)
	}
	return nil
}

// frameBufPool recycles the per-frame scratch buffers of the gob frame
// codec. A long stream writes (and reads) thousands of frames; without
// the pool every frame retires a buffer the size of its payload to the
// garbage collector. Buffers that grew beyond maxPooledFrame are dropped
// instead of pooled so one pathological frame cannot pin megabytes.
var frameBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledFrame bounds the capacity of buffers returned to the pool.
const maxPooledFrame = 1 << 20

func putFrameBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledFrame {
		frameBufPool.Put(buf)
	}
}

// writeFrame writes v as one gob frame (each frame carries its own gob
// type preamble). The encode scratch buffer is pooled; nothing of v is
// retained.
func writeFrame[T any](w io.Writer, v *T) error {
	buf := frameBufPool.Get().(*bytes.Buffer)
	defer putFrameBuf(buf)
	buf.Reset()
	var reserved [frameHeader]byte
	buf.Write(reserved[:])
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return fmt.Errorf("wire: encode frame: %w", err)
	}
	return sealFrame(w, buf.Bytes())
}

// readFrame reads one gob frame into v, with openFrame's end-of-stream
// contract. The payload buffer is pooled — gob copies everything it
// decodes into v, so nothing aliases it after the decode returns.
func readFrame[T any](r io.Reader, v *T) error {
	body := frameBufPool.Get().(*bytes.Buffer)
	defer putFrameBuf(body)
	body.Reset()
	if err := openFrame(r, body); err != nil {
		return err
	}
	if err := gob.NewDecoder(body).Decode(v); err != nil {
		return fmt.Errorf("wire: decode frame: %w", err)
	}
	return nil
}

// fresh runs a read-into decoder on a new value — the shape the exported
// Read* wrappers hand their callers.
func fresh[T any](r io.Reader, read func(io.Reader, *T) error) (*T, error) {
	v := new(T)
	if err := read(r, v); err != nil {
		return nil, err
	}
	return v, nil
}
