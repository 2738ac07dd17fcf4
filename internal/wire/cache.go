package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"vcqr/internal/hashx"
)

// This file is the edge-cache half of the wire protocol
// (internal/cache): memcached-shaped get/put/invalidate/stats operations
// carried as length-prefixed binary frames over a single POST endpoint,
// under the same size cap as the chunk streams. Unlike the cluster
// frames these do not ride gob: a cache hit is the hot path of a cached
// deployment and gob pays a per-frame engine setup that dwarfs the
// actual byte shuffling, so the codec here is hand-rolled — a tag byte
// plus uvarint-length-prefixed fields over a pooled scratch buffer. A
// cache peer is deliberately outside the trust model — it stores opaque
// bytes the coordinator handed it and returns them verbatim; anything it
// garbles or forges dies on the client's entry digest compare, the
// coordinator's seam checks, or ultimately the user's unmodified stream
// verifier.

// CacheGet asks a peer for one entry by its full key.
type CacheGet struct {
	Key string
}

// CachePut stores one entry. Relation/Shard/Epoch place the entry in its
// invalidation group (Shard < 0 groups whole merged streams); Sum is the
// filler's digest over Bytes, stored and echoed so a reader can detect a
// corrupted or lazily tampered entry without trusting the peer.
type CachePut struct {
	Key      string
	Relation string
	Shard    int
	Epoch    uint64
	Sum      hashx.Digest
	Bytes    []byte
}

// CacheInvalidate drops entries. With Key set, exactly that entry; with
// Keep > 0, every entry of the (Relation, Shard) group whose epoch is
// not Keep; with Keep == 0, the whole group.
type CacheInvalidate struct {
	Relation string
	Shard    int
	Keep     uint64
	Key      string
}

// CacheFrame is one cache-protocol request: exactly one operation set.
type CacheFrame struct {
	Get        *CacheGet
	Put        *CachePut
	Invalidate *CacheInvalidate
	Stats      bool
}

// CacheStats is a peer's counter snapshot.
type CacheStats struct {
	Entries       int
	Bytes, Budget int64
	Hits, Misses  uint64
	Puts          uint64
	Evictions     uint64
	Invalidations uint64
}

// CacheReply answers one cache-protocol request.
type CacheReply struct {
	// Hit, Sum, Bytes answer a Get.
	Hit   bool
	Sum   hashx.Digest
	Bytes []byte
	// Dropped answers an Invalidate.
	Dropped int
	// Stats answers a Stats request.
	Stats *CacheStats
	Err   string
}

// Cache frame layout: the shared frame header (frame.go), then a tag byte
// and the operation's fields. Strings and byte fields carry a uvarint
// length prefix; integers are (u)varints. A decoded frame must consume
// its payload exactly — trailing bytes are a malformed frame, so every
// byte on the wire is accounted for.
const (
	cacheTagGet        = 1
	cacheTagPut        = 2
	cacheTagInvalidate = 3
	cacheTagStats      = 4
	cacheTagReply      = 5
)

var errCacheFrame = errors.New("wire: malformed cache frame")

// cacheBufPool holds encode scratch: the header is reserved, payload
// bytes are built once behind it, and sealFrame sends the whole frame in
// one Write.
var cacheBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func appendCacheBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendCacheString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// cacheDecoder is a sticky-error cursor over one frame payload.
type cacheDecoder struct {
	b   []byte
	err error
}

func (d *cacheDecoder) fail() { d.err = errCacheFrame }

func (d *cacheDecoder) byte() byte {
	if d.err != nil || len(d.b) == 0 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *cacheDecoder) uvarint() uint64 {
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

func (d *cacheDecoder) varint() int64 {
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

// bytes returns a sub-slice aliasing the frame's backing array (each
// frame is read into a fresh payload, so aliases stay valid and private).
func (d *cacheDecoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

func (d *cacheDecoder) str() string { return string(d.bytes()) }

// done fails the decode unless the payload was consumed exactly.
func (d *cacheDecoder) done() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail()
	}
	return d.err
}

// openCacheFrame reads one frame's payload and its tag byte. The payload
// lands in a buffer of its own (never the gob codec's pool): decoded
// byte fields alias it.
func openCacheFrame(r io.Reader) (cacheDecoder, byte, error) {
	var body bytes.Buffer
	if err := openFrame(r, &body); err != nil {
		return cacheDecoder{}, 0, err
	}
	d := cacheDecoder{b: body.Bytes()}
	return d, d.byte(), nil
}

// WriteCacheFrame writes one cache request frame.
func WriteCacheFrame(w io.Writer, f *CacheFrame) error {
	bp := cacheBufPool.Get().(*[]byte)
	b := append((*bp)[:0], 0, 0, 0, 0)
	switch {
	case f.Get != nil:
		b = append(b, cacheTagGet)
		b = appendCacheString(b, f.Get.Key)
	case f.Put != nil:
		p := f.Put
		b = append(b, cacheTagPut)
		b = appendCacheString(b, p.Key)
		b = appendCacheString(b, p.Relation)
		b = binary.AppendVarint(b, int64(p.Shard))
		b = binary.AppendUvarint(b, p.Epoch)
		b = appendCacheBytes(b, p.Sum)
		b = appendCacheBytes(b, p.Bytes)
	case f.Invalidate != nil:
		iv := f.Invalidate
		b = append(b, cacheTagInvalidate)
		b = appendCacheString(b, iv.Relation)
		b = binary.AppendVarint(b, int64(iv.Shard))
		b = binary.AppendUvarint(b, iv.Keep)
		b = appendCacheString(b, iv.Key)
	case f.Stats:
		b = append(b, cacheTagStats)
	default:
		*bp = b[:0]
		cacheBufPool.Put(bp)
		return fmt.Errorf("wire: cache frame sets no operation")
	}
	err := sealFrame(w, b)
	*bp = b[:0]
	cacheBufPool.Put(bp)
	return err
}

// ReadCacheFrame reads one cache request frame: io.EOF at a frame
// boundary, the shared framing errors otherwise.
func ReadCacheFrame(r io.Reader) (*CacheFrame, error) { return fresh(r, readCacheFrame) }

func readCacheFrame(r io.Reader, f *CacheFrame) error {
	d, tag, err := openCacheFrame(r)
	if err != nil {
		return err
	}
	switch tag {
	case cacheTagGet:
		f.Get = &CacheGet{Key: d.str()}
	case cacheTagPut:
		f.Put = &CachePut{
			Key:      d.str(),
			Relation: d.str(),
			Shard:    int(d.varint()),
			Epoch:    d.uvarint(),
			Sum:      hashx.Digest(d.bytes()),
			Bytes:    d.bytes(),
		}
	case cacheTagInvalidate:
		f.Invalidate = &CacheInvalidate{
			Relation: d.str(),
			Shard:    int(d.varint()),
			Keep:     d.uvarint(),
			Key:      d.str(),
		}
	case cacheTagStats:
		f.Stats = true
	default:
		return errCacheFrame
	}
	return d.done()
}

// WriteCacheReply writes one cache reply frame.
func WriteCacheReply(w io.Writer, rp *CacheReply) error {
	bp := cacheBufPool.Get().(*[]byte)
	b := append((*bp)[:0], 0, 0, 0, 0, cacheTagReply)
	var flags byte
	if rp.Hit {
		flags |= 1
	}
	if rp.Stats != nil {
		flags |= 2
	}
	b = append(b, flags)
	b = appendCacheBytes(b, rp.Sum)
	b = appendCacheBytes(b, rp.Bytes)
	b = binary.AppendVarint(b, int64(rp.Dropped))
	if s := rp.Stats; s != nil {
		b = binary.AppendVarint(b, int64(s.Entries))
		b = binary.AppendVarint(b, s.Bytes)
		b = binary.AppendVarint(b, s.Budget)
		b = binary.AppendUvarint(b, s.Hits)
		b = binary.AppendUvarint(b, s.Misses)
		b = binary.AppendUvarint(b, s.Puts)
		b = binary.AppendUvarint(b, s.Evictions)
		b = binary.AppendUvarint(b, s.Invalidations)
	}
	b = appendCacheString(b, rp.Err)
	err := sealFrame(w, b)
	*bp = b[:0]
	cacheBufPool.Put(bp)
	return err
}

// ReadCacheReply reads one cache reply frame.
func ReadCacheReply(r io.Reader) (*CacheReply, error) { return fresh(r, readCacheReply) }

func readCacheReply(r io.Reader, rp *CacheReply) error {
	d, tag, err := openCacheFrame(r)
	if err != nil {
		return err
	}
	if tag != cacheTagReply {
		return errCacheFrame
	}
	flags := d.byte()
	*rp = CacheReply{
		Hit:     flags&1 != 0,
		Sum:     hashx.Digest(d.bytes()),
		Bytes:   d.bytes(),
		Dropped: int(d.varint()),
	}
	if flags&2 != 0 {
		rp.Stats = &CacheStats{
			Entries:       int(d.varint()),
			Bytes:         d.varint(),
			Budget:        d.varint(),
			Hits:          d.uvarint(),
			Misses:        d.uvarint(),
			Puts:          d.uvarint(),
			Evictions:     d.uvarint(),
			Invalidations: d.uvarint(),
		}
	}
	rp.Err = d.str()
	return d.done()
}

// CacheOp posts one cache request frame to a peer's cache endpoint and
// reads the reply frame.
func (c *Client) CacheOp(f *CacheFrame) (*CacheReply, error) {
	rp, err := CacheRPC.Call(c, *f)
	return &rp, err
}
