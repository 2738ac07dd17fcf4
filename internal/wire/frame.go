package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Framing: every payload of the protocol — result chunks, node
// sub-stream frames, shard transfers, heartbeats, cache operations and
// every request and reply body — travels as one self-delimiting frame: a
// 4-byte big-endian length followed by that many payload bytes. Frames
// are independently decodable, so a reader can resynchronize per frame,
// bound its memory by MaxChunkFrame (a unary body by MaxDeltaBody, the
// largest row cap), and hand each payload on the moment it arrives.
// Nothing in the framing is trusted: truncation, reordering and
// tampering are all caught by the verification layer; the frame format
// only needs to fail cleanly. This file holds the one header writer, the
// one header reader and the one field codec every payload is written in;
// codec.go, body.go and cache.go hold the typed encoders over it.
//
// Payload layout: a tag byte, then that tag's fields in a fixed order —
// integers as (u)varints, strings, digests, signatures and byte values
// with a uvarint length prefix, lists with a uvarint count. A decoder
// must consume its payload exactly, so every byte on the wire is
// accounted for and an unknown tag, a count or length beyond the bytes
// that remain, or a trailing byte is errMalformed.
//
// The tag byte is the format's only version. A tag's field list never
// changes: a new optional field ships as a new tag carrying the longer
// list, readers accept both tags, and the old one is retired once no
// writer emits it. Streamed frames are therefore not compatible across
// releases that add a tag — coordinator, nodes and clients upgrade
// together (docs/OPERATIONS.md) — while a cached entry in a retired
// encoding is simply malformed, which falls through to origin.

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

	// errMalformed reports a complete frame whose payload is not a valid
	// encoding of the frame type the reader expected.
	errMalformed = errors.New("wire: malformed frame")
)

// frameHeader is the length prefix every frame opens with; encoders
// reserve it up front so header and payload leave in one Write.
const frameHeader = 4

// frameReadAhead bounds what a frame's claimed length may reserve before
// its bytes arrive: a lying prefix over a short stream costs this much,
// never MaxChunkFrame. Sized above a typical cached stream, so an
// honest cache frame still lands in one exact allocation.
const frameReadAhead = 128 << 10

// sealFrame patches the length prefix into b — frameHeader reserved
// bytes followed by the payload — and writes the whole frame, refusing a
// payload beyond limit.
func sealFrame(w io.Writer, b []byte, limit int) error {
	n := len(b) - frameHeader
	if n > limit {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	binary.BigEndian.PutUint32(b[:frameHeader], uint32(n))
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// openFrame reads one frame and returns its payload in a buffer of its
// own, which whatever is decoded from it may alias. It returns io.EOF
// exactly at a frame boundary (the clean end of a stream),
// ErrFrameTruncated when the stream dies mid-frame and ErrFrameTooBig on
// a length prefix beyond limit. Past frameReadAhead the buffer grows only
// as fast as bytes arrive, so the claim itself allocates little.
func openFrame(r io.Reader, limit int) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: length prefix: %v", ErrFrameTruncated, err)
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > limit {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	body := make([]byte, min(n, frameReadAhead))
	for got := 0; ; {
		m, err := io.ReadFull(r, body[got:])
		if got += m; err != nil {
			return nil, fmt.Errorf("%w: body: %v", ErrFrameTruncated, err)
		}
		if got == n {
			return body, nil
		}
		body = append(body, make([]byte, min(n-got, got))...)
	}
}

// scratchPool recycles every encoder's scratch: the header is reserved,
// the payload is appended behind it, and sealFrame sends the whole frame
// in one Write. A long stream writes thousands of frames; without the
// pool each retires a payload-sized buffer to the garbage collector.
var scratchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// maxPooledFrame bounds the capacity of buffers returned to the pool, so
// one pathological frame cannot pin megabytes.
const maxPooledFrame = 1 << 20

// encodeFrame appends v's payload behind a reserved header in pooled
// scratch and writes the sealed frame, at most limit payload bytes.
// Nothing of v is retained.
func encodeFrame[T any](w io.Writer, v *T, limit int, payload func([]byte, *T) ([]byte, error)) error {
	bp := scratchPool.Get().(*[]byte)
	b, err := payload(append((*bp)[:0], 0, 0, 0, 0), v)
	if err == nil {
		err = sealFrame(w, b, limit)
	}
	if cap(b) <= maxPooledFrame {
		*bp = b[:0]
		scratchPool.Put(bp)
	}
	return err
}

func appendBytes[T ~[]byte | ~string](b []byte, p T) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// decoder is a sticky-error cursor over one frame payload: after the
// first malformed field every read returns zero, so a decode function
// reads its fields straight through and checks done() once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() { d.err = errMalformed }

// tag consumes the payload's tag byte, which must be want.
func (d *decoder) tag(want byte) {
	if d.byte() != want {
		d.fail()
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.b) == 0 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) bool() bool {
	v := d.byte()
	if v > 1 {
		d.fail()
	}
	return v == 1
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int reads a varint that must fit the platform's int.
func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail()
		return 0
	}
	return int(v)
}

// count reads a list length whose elements take at least size encoded
// bytes each, refusing one the remaining payload cannot hold — checked
// here so no caller sizes an allocation from an unchecked claim.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)/size) {
		d.fail()
		return 0
	}
	return int(n)
}

// bytes returns a sub-slice aliasing the frame's payload (openFrame gives
// every frame a buffer of its own, so aliases stay valid and private);
// an empty field decodes as nil.
func (d *decoder) bytes() []byte {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

// str copies: a string must not change if the payload is later written.
func (d *decoder) str() string { return string(d.bytes()) }

// done fails the decode unless the payload was consumed exactly.
func (d *decoder) done() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail()
	}
	return d.err
}

// decodeFrame reads one frame of at most limit payload bytes and decodes
// it into v, which from then on owns the payload buffer it aliases.
func decodeFrame[T any](r io.Reader, v *T, limit int, payload func(*decoder, *T)) error {
	body, err := openFrame(r, limit)
	if err != nil {
		return err
	}
	d := decoder{b: body}
	payload(&d, v)
	return d.done()
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
