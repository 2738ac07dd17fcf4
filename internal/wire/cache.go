package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"vcqr/internal/hashx"
)

// This file is the edge-cache half of the wire protocol
// (internal/cache): memcached-shaped get/put/invalidate/stats operations
// carried as length-prefixed binary frames over a single POST endpoint,
// under the same size cap as the chunk streams and in the same field
// codec (frame.go) as the result chunks they carry. A cache peer is
// deliberately outside the trust model — it stores opaque bytes the
// coordinator handed it and returns them verbatim; anything it garbles
// or forges dies on the client's entry digest compare, its frame walk
// (SplitChunkFrame), or ultimately the user's unmodified stream
// verifier.

// CacheGet asks a peer for one entry by its full key.
type CacheGet struct {
	Key string
}

// CachePut stores one entry. Relation/Shard/Epoch place the entry in its
// invalidation group (Shard < 0 groups streams covering several shards);
// Sum is the filler's digest over Bytes, stored and echoed so a reader
// can detect a corrupted or lazily tampered entry without trusting the
// peer.
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

// Cache frame tags; each is followed by the operation's fields in struct
// order (frame.go has the payload rules).
const (
	cacheTagGet        = 1
	cacheTagPut        = 2
	cacheTagInvalidate = 3
	cacheTagStats      = 4
	cacheTagReply      = 5
)

// WriteCacheFrame writes one cache request frame.
func WriteCacheFrame(w io.Writer, f *CacheFrame) error {
	return encodeFrame(w, f, MaxChunkFrame, appendCacheFrame)
}

func appendCacheFrame(b []byte, f *CacheFrame) ([]byte, error) {
	switch {
	case f.Get != nil:
		b = append(b, cacheTagGet)
		b = appendBytes(b, f.Get.Key)
	case f.Put != nil:
		p := f.Put
		b = append(b, cacheTagPut)
		b = appendBytes(b, p.Key)
		b = appendBytes(b, p.Relation)
		b = appendInt(b, p.Shard)
		b = binary.AppendUvarint(b, p.Epoch)
		b = appendBytes(b, p.Sum)
		b = appendBytes(b, p.Bytes)
	case f.Invalidate != nil:
		iv := f.Invalidate
		b = append(b, cacheTagInvalidate)
		b = appendBytes(b, iv.Relation)
		b = appendInt(b, iv.Shard)
		b = binary.AppendUvarint(b, iv.Keep)
		b = appendBytes(b, iv.Key)
	case f.Stats:
		b = append(b, cacheTagStats)
	default:
		return b, fmt.Errorf("wire: cache frame sets no operation")
	}
	return b, nil
}

// ReadCacheFrame reads one cache request frame: io.EOF at a frame
// boundary, the shared framing errors otherwise.
func ReadCacheFrame(r io.Reader) (*CacheFrame, error) { return fresh(r, readCacheFrame) }

func readCacheFrame(r io.Reader, f *CacheFrame) error {
	return decodeFrame(r, f, MaxChunkFrame, (*decoder).cacheFrame)
}

func (d *decoder) cacheFrame(f *CacheFrame) {
	switch d.byte() {
	case cacheTagGet:
		f.Get = &CacheGet{Key: d.str()}
	case cacheTagPut:
		f.Put = &CachePut{
			Key:      d.str(),
			Relation: d.str(),
			Shard:    d.int(),
			Epoch:    d.uvarint(),
			Sum:      hashx.Digest(d.bytes()),
			Bytes:    d.bytes(),
		}
	case cacheTagInvalidate:
		f.Invalidate = &CacheInvalidate{
			Relation: d.str(),
			Shard:    d.int(),
			Keep:     d.uvarint(),
			Key:      d.str(),
		}
	case cacheTagStats:
		f.Stats = true
	default:
		d.fail()
	}
}

// WriteCacheReply writes one cache reply frame.
func WriteCacheReply(w io.Writer, rp *CacheReply) error {
	return encodeFrame(w, rp, MaxChunkFrame, appendCacheReply)
}

func appendCacheReply(b []byte, rp *CacheReply) ([]byte, error) {
	var flags byte
	if rp.Hit {
		flags |= 1
	}
	if rp.Stats != nil {
		flags |= 2
	}
	b = append(b, cacheTagReply, flags)
	b = appendBytes(b, rp.Sum)
	b = appendBytes(b, rp.Bytes)
	b = appendInt(b, rp.Dropped)
	if s := rp.Stats; s != nil {
		b = appendInt(b, s.Entries)
		b = binary.AppendVarint(b, s.Bytes)
		b = binary.AppendVarint(b, s.Budget)
		b = binary.AppendUvarint(b, s.Hits)
		b = binary.AppendUvarint(b, s.Misses)
		b = binary.AppendUvarint(b, s.Puts)
		b = binary.AppendUvarint(b, s.Evictions)
		b = binary.AppendUvarint(b, s.Invalidations)
	}
	return appendBytes(b, rp.Err), nil
}

// ReadCacheReply reads one cache reply frame.
func ReadCacheReply(r io.Reader) (*CacheReply, error) { return fresh(r, readCacheReply) }

func readCacheReply(r io.Reader, rp *CacheReply) error {
	return decodeFrame(r, rp, MaxChunkFrame, (*decoder).cacheReply)
}

func (d *decoder) cacheReply(rp *CacheReply) {
	if d.byte() != cacheTagReply {
		d.fail()
	}
	flags := d.byte()
	*rp = CacheReply{
		Hit:     flags&1 != 0,
		Sum:     hashx.Digest(d.bytes()),
		Bytes:   d.bytes(),
		Dropped: d.int(),
	}
	if flags&2 != 0 {
		rp.Stats = &CacheStats{
			Entries:       d.int(),
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
}

// CacheOp posts one cache request frame to a peer's cache endpoint and
// reads the reply frame.
func (c *Client) CacheOp(f *CacheFrame) (*CacheReply, error) {
	rp, err := CacheRPC.Call(c, *f)
	return &rp, err
}
