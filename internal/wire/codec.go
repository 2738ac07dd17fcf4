package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/mht"
	"vcqr/internal/obs"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
)

// This file is the typed half of the field codec (frame.go): result
// chunks and node sub-stream frames, and the values they and the request
// and reply bodies (body.go) are made of.
// Every decoded digest, signature and byte value aliases the frame's
// payload; every list that was empty on the wire decodes as nil.

// Tags are unique across frame kinds — the cache tags 1–5 (cache.go)
// complete the space — so a frame read as the wrong kind is malformed.
// Each tag's fields are what its append function writes, in that order;
// DESIGN.md "One field codec for everything streamed" has the table.
//
// Record formats 1 and 2 (core.RecordFormat) each changed the fields of
// an entry and of a signed record, so every frame carrying either took a
// new tag — the chunk family moved whole each time, from 0x10 + type to
// 0x60 + type to 0x70 + type — and the older tags are retired: nothing
// signed in an older format verifies any more, so there is nothing to
// read forward. Format 0's were 0x11–0x15, 0x21, 0x34–0x36, 0x42, 0x46,
// 0x47, 0x51 and 0x52; format 1's were 0x61–0x65, 0x25, 0x3a–0x3c,
// 0x49, 0x4a, 0x4b and 0x56. A node chunk frame wraps a chunk with its
// tag, so its own tag stays.
const (
	tagChunk     = 0x70 // + engine.ChunkType
	tagNodeHello = 0x26
	tagNodeChunk = 0x22
	tagNodeFoot  = 0x23
	tagNodeErr   = 0x24

	// Request bodies (body.go).
	tagStreamRequest      = 0x31
	tagShardStreamRequest = 0x32
	tagShardRef           = 0x33
	tagDelta              = 0x3d
	tagNodeDeltaRequest   = 0x3e
	tagMirrorRequest      = 0x3f
	tagTxRequest          = 0x37
	tagHostedRequest      = 0x38
	tagLeaseRequest       = 0x39

	// Reply bodies (body.go).
	tagDeltaResponse     = 0x41
	tagEdgeResponse      = 0x4c
	tagDigestResponse    = 0x43
	tagHostedResponse    = 0x44
	tagOKResponse        = 0x45
	tagNodeDeltaResponse = 0x4d
	tagMirrorResponse    = 0x4e
	tagLeaseResponse     = 0x48

	// Shard-transfer frames (body.go).
	tagTransferManifest = 0x55
	tagTransferRecs     = 0x57
	tagTransferFoot     = 0x53
	tagTransferErr      = 0x54

	// Disk records (disk.go): a node log's, then a coordinator log's.
	tagSliceRecord   = 0x81
	tagRemoveRecord  = 0x82
	tagCommitRecord  = 0x83
	tagRoutingRecord = 0x84
	tagStagedBegin   = 0x85
	tagStagedEnd     = 0x86
)

// minEntry is the least an entry encodes to (mode, key, two counts, one
// digest length), minRecord the least a signed record does (kind, key,
// row id, attribute count, five digest and one signature lengths); the
// other list elements' least sizes are spelled at their alloc call.
const (
	minEntry  = 5
	minRecord = 10
)

// --- values -----------------------------------------------------------

func appendValue(b []byte, v *relation.Value) []byte {
	b = appendInt(b, int(v.Type))
	switch v.Type {
	case relation.TypeInt:
		b = binary.AppendVarint(b, v.Int)
	case relation.TypeFloat:
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float))
	case relation.TypeString:
		b = appendBytes(b, v.Str)
	case relation.TypeBytes:
		b = appendBytes(b, v.Bytes)
	case relation.TypeBool:
		b = appendBool(b, v.Bool)
	}
	return b
}

// value reads the field Type selects; an unknown type carries none and
// is the verifier's to refuse.
func (d *decoder) value(v *relation.Value) {
	*v = relation.Value{Type: relation.Type(d.int())} // a recycled value keeps no stale field
	switch v.Type {
	case relation.TypeInt:
		v.Int = d.varint()
	case relation.TypeFloat:
		if len(d.b) < 8 {
			d.fail()
			return
		}
		v.Float = math.Float64frombits(binary.BigEndian.Uint64(d.b))
		d.b = d.b[8:]
	case relation.TypeString:
		v.Str = d.str()
	case relation.TypeBytes:
		v.Bytes = d.bytes()
	case relation.TypeBool:
		v.Bool = d.bool()
	}
}

func appendRecord(b []byte, r *core.SignedRecord) []byte {
	b = append(b, byte(r.Kind))
	b = binary.AppendUvarint(b, r.Tuple.Key)
	b = binary.AppendUvarint(b, r.Tuple.RowID)
	b = binary.AppendUvarint(b, uint64(len(r.Tuple.Attrs)))
	for i := range r.Tuple.Attrs {
		b = appendValue(b, &r.Tuple.Attrs[i])
	}
	for _, dg := range [...]hashx.Digest{r.UpCombined, r.DownCombined, r.Combined, r.AttrRoot, r.G} {
		b = appendBytes(b, dg)
	}
	return appendBytes(b, r.Sig)
}

func (d *decoder) record(r *core.SignedRecord) {
	r.Kind = core.Kind(d.byte())
	r.Tuple.Key, r.Tuple.RowID = d.uvarint(), d.uvarint()
	r.Tuple.Attrs = alloc[relation.Value](d, 1)
	for i := range r.Tuple.Attrs {
		d.value(&r.Tuple.Attrs[i])
	}
	for _, dg := range [...]*hashx.Digest{&r.UpCombined, &r.DownCombined, &r.Combined, &r.AttrRoot, &r.G} {
		*dg = d.bytes()
	}
	r.Sig = d.bytes()
}

// appendEdges writes a slice's seam material: head records, then tail.
func appendEdges(b []byte, e *partition.Edges) []byte {
	for i := range e.Head {
		b = appendRecord(b, &e.Head[i])
	}
	for i := range e.Tail {
		b = appendRecord(b, &e.Tail[i])
	}
	return b
}

func (d *decoder) edges(e *partition.Edges) {
	for i := range e.Head {
		d.record(&e.Head[i])
	}
	for i := range e.Tail {
		d.record(&e.Tail[i])
	}
}

// appendList writes a counted run of digests, signatures or strings.
func appendList[T ~[]byte | ~string](b []byte, l []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(l)))
	for _, p := range l {
		b = appendBytes(b, p)
	}
	return b
}

// carve reads a list count and cuts that many elements from the unused
// end of *arena; size is the least one element encodes to. An arena
// without room is replaced by a new array with room for more lists of
// this length — a chunk's entries are alike, so one array usually serves
// them all — capped at what the payload bytes left could hold, or by one
// twice the old array's size when that is larger, so that a recycled
// arena grows to fit a stream's chunks and then stays. Either size is
// backed by payload bytes. Lists cut before keep the array they were cut
// from. An empty list is nil.
func carve[T any](d *decoder, arena *[]T, size, more int) []T {
	n := d.count(size)
	if n == 0 {
		return nil
	}
	if n > cap(*arena)-len(*arena) {
		room := int(min(int64(n)*int64(more), int64(len(d.b)/size)))
		*arena = make([]T, 0, max(room, 2*cap(*arena)))
	}
	at := len(*arena)
	*arena = (*arena)[:at+n]
	return (*arena)[at : at+n : at+n]
}

// alloc reads a list count and allocates exactly that list.
func alloc[T any](d *decoder, size int) []T {
	var one []T
	return carve(d, &one, size, 1)
}

// fill reads one digest, signature or string into each element of l.
func fill[T ~[]byte | ~string](d *decoder, l []T) []T {
	for i := range l {
		l[i] = T(d.bytes())
	}
	return l
}

// sorted reads n map entries written in key order — a map has one
// encoding — passing each key to val, which reads its value; a key out
// of order or repeated fails.
func (d *decoder) sorted(n int, val func(key string)) {
	prev := ""
	for i := range n {
		k := d.str()
		if i > 0 && k <= prev {
			d.fail()
		}
		val(k)
		prev = k
	}
}

func appendTiming(b []byte, t []obs.StageDur) []byte {
	b = binary.AppendUvarint(b, uint64(len(t)))
	for _, s := range t {
		b = binary.AppendVarint(appendBytes(b, s.Stage), s.NS)
	}
	return b
}

func (d *decoder) timing() []obs.StageDur {
	out := alloc[obs.StageDur](d, 2)
	for i := range out {
		out[i] = obs.StageDur{Stage: d.str(), NS: d.varint()}
	}
	return out
}

// --- proofs and queries -----------------------------------------------

func appendBoundary(b []byte, bp *core.BoundaryProof) []byte {
	c := &bp.Chain
	b = appendBool(append(b, byte(bp.Kind)), c.Canonical)
	b = appendList(appendInt(b, c.Index), c.Intermediates)
	b = appendBytes(appendBytes(b, c.RepRoot), c.CanonDigest)
	b = binary.AppendUvarint(b, uint64(len(c.RepPath)))
	for _, pe := range c.RepPath {
		b = appendBool(appendBytes(b, pe.Sibling), pe.Right)
	}
	return appendBytes(appendBytes(b, bp.OtherCombined), bp.AttrRoot)
}

func (d *decoder) boundary(bp *core.BoundaryProof) {
	c := &bp.Chain
	bp.Kind, c.Canonical, c.Index = core.Kind(d.byte()), d.bool(), d.int()
	c.Intermediates = fill(d, alloc[hashx.Digest](d, 1))
	c.RepRoot, c.CanonDigest = d.bytes(), d.bytes()
	c.RepPath = alloc[mht.PathElem](d, 2)
	for i := range c.RepPath {
		c.RepPath[i] = mht.PathElem{Sibling: d.bytes(), Right: d.bool()}
	}
	bp.OtherCombined, bp.AttrRoot = d.bytes(), d.bytes()
}

// An optional boundary proof is a presence byte, then the proof.
func appendOptBoundary(b []byte, bp *core.BoundaryProof) []byte {
	if b = appendBool(b, bp != nil); bp != nil {
		b = appendBoundary(b, bp)
	}
	return b
}

func (d *decoder) optBoundary() *core.BoundaryProof {
	if !d.bool() {
		return nil
	}
	bp := new(core.BoundaryProof)
	d.boundary(bp)
	return bp
}

func appendQuery(b []byte, q *engine.Query) []byte {
	b = appendBytes(b, q.Relation)
	b = binary.AppendUvarint(binary.AppendUvarint(b, q.KeyLo), q.KeyHi)
	b = binary.AppendUvarint(b, uint64(len(q.Filters)))
	for i := range q.Filters {
		f := &q.Filters[i]
		b = appendInt(appendBytes(b, f.Col), int(f.Op))
		b = appendValue(b, &f.Val)
	}
	b = binary.AppendUvarint(b, uint64(len(q.Project)))
	for _, col := range q.Project {
		b = appendBytes(b, col)
	}
	return appendBool(b, q.Distinct)
}

func (d *decoder) query(q *engine.Query) {
	q.Relation, q.KeyLo, q.KeyHi = d.str(), d.uvarint(), d.uvarint()
	q.Filters = alloc[engine.Filter](d, 3)
	for i := range q.Filters {
		f := &q.Filters[i]
		f.Col, f.Op = d.str(), engine.Op(d.int())
		d.value(&f.Val)
	}
	q.Project = alloc[string](d, 1)
	for i := range q.Project {
		q.Project[i] = d.str()
	}
	q.Distinct = d.bool()
}

// --- result chunks ----------------------------------------------------

func appendEntry(b []byte, e *engine.VOEntry) []byte {
	b = binary.AppendUvarint(append(b, byte(e.Mode)), e.Key)
	b = binary.AppendUvarint(b, uint64(len(e.Disclosed)))
	for i := range e.Disclosed {
		b = appendValue(appendInt(b, e.Disclosed[i].Col), &e.Disclosed[i].Val)
	}
	return appendBytes(appendList(b, e.HiddenLeaves), e.Combined)
}

// chunkArenas backs the lists of an entries chunk — its entries and their
// disclosed attributes and hidden leaves — so a chunk decodes in a
// handful of allocations however many rows it carries, and in none once a
// recycling reader's arenas have grown to fit.
type chunkArenas struct {
	entries []engine.VOEntry
	attrs   []engine.DisclosedAttr
	leaves  []hashx.Digest
}

// reset empties the arenas for the next chunk, keeping their arrays.
func (a *chunkArenas) reset() {
	a.entries, a.attrs, a.leaves = a.entries[:0], a.attrs[:0], a.leaves[:0]
}

// arenas returns the arrays an entries chunk's lists are cut from: the
// reader's recycled ones, or new ones.
func (d *decoder) arenas() *chunkArenas {
	if d.fr == nil {
		return new(chunkArenas)
	}
	return &d.fr.arenas
}

// newChunk returns the chunk a frame's chunk decodes into: the reader's
// recycled one for an entries chunk, a new one otherwise.
func (d *decoder) newChunk() *engine.Chunk {
	if d.fr == nil {
		return new(engine.Chunk)
	}
	d.fr.chunk = engine.Chunk{}
	return &d.fr.chunk
}

// entry decodes one covered record; more counts it and the entries that
// follow, which sizes the arenas.
func (d *decoder) entry(e *engine.VOEntry, a *chunkArenas, more int) {
	e.Mode, e.Key = engine.EntryMode(d.byte()), d.uvarint()
	e.Disclosed = carve(d, &a.attrs, 2, more)
	for i := range e.Disclosed {
		e.Disclosed[i].Col = d.int()
		d.value(&e.Disclosed[i].Val)
	}
	e.HiddenLeaves = fill(d, carve(d, &a.leaves, 1, more))
	e.Combined = d.bytes()
}

func appendChunk(b []byte, c *engine.Chunk) ([]byte, error) {
	if c.Type < engine.ChunkHeader || c.Type > engine.ChunkTiming {
		return b, fmt.Errorf("wire: encode frame: unknown chunk type %d", c.Type)
	}
	b = binary.AppendUvarint(append(b, tagChunk+byte(c.Type)), c.Seq)
	b = appendInt(b, c.Shard)
	switch c.Type {
	case engine.ChunkHeader:
		b = appendQuery(appendBytes(b, c.Relation), &c.Effective)
		b = binary.AppendUvarint(binary.AppendUvarint(b, c.KeyLo), c.KeyHi)
		b = appendBoundary(b, &c.Left)
	case engine.ChunkEntries:
		b = binary.AppendUvarint(b, uint64(len(c.Entries)))
		for i := range c.Entries {
			b = appendEntry(b, &c.Entries[i])
		}
	case engine.ChunkFooter:
		b = appendBoundary(b, &c.Right)
		b = appendBytes(appendBytes(b, c.AggSig), c.PredPrevG)
		b = binary.AppendUvarint(b, uint64(len(c.ShardFeet)))
		for _, sf := range c.ShardFeet {
			b = binary.AppendUvarint(appendInt(b, sf.Shard), sf.Entries)
		}
	case engine.ChunkError:
		b = appendBytes(b, c.Err)
	case engine.ChunkTiming:
		b = appendTiming(appendBytes(b, c.Trace), c.Timing)
	}
	return b, nil
}

func (d *decoder) chunk(c *engine.Chunk) {
	c.Type = engine.ChunkType(d.byte() - tagChunk)
	c.Seq, c.Shard = d.uvarint(), d.int()
	switch c.Type {
	case engine.ChunkHeader:
		c.Relation = d.str()
		d.query(&c.Effective)
		c.KeyLo, c.KeyHi = d.uvarint(), d.uvarint()
		d.boundary(&c.Left)
	case engine.ChunkEntries:
		a := d.arenas()
		c.Entries = carve(d, &a.entries, minEntry, 1)
		for i := range c.Entries {
			d.entry(&c.Entries[i], a, len(c.Entries)-i)
		}
	case engine.ChunkFooter:
		d.boundary(&c.Right)
		c.AggSig, c.PredPrevG = d.bytes(), d.bytes()
		c.ShardFeet = alloc[engine.ShardFoot](d, 2)
		for i := range c.ShardFeet {
			c.ShardFeet[i] = engine.ShardFoot{Shard: d.int(), Entries: d.uvarint()}
		}
	case engine.ChunkError:
		c.Err = d.str()
	case engine.ChunkTiming:
		c.Trace, c.Timing = d.str(), d.timing()
	default:
		d.fail()
	}
}

// --- node sub-stream frames -------------------------------------------

func appendNodeFrame(b []byte, f *NodeFrame) ([]byte, error) {
	switch {
	case f.Hello != nil:
		h := f.Hello
		b = binary.AppendUvarint(appendInt(append(b, tagNodeHello), h.Shard), h.Epoch)
		b = appendBytes(appendOptBoundary(appendEdges(b, &h.Edges), h.Left), h.Digest)
		return appendBool(b, h.NeedPrevG), nil
	case f.Chunk != nil:
		return appendChunk(append(b, tagNodeChunk), f.Chunk)
	case f.Foot != nil:
		ft := f.Foot
		b = binary.AppendUvarint(append(b, tagNodeFoot), ft.Entries)
		b = appendOptBoundary(appendBytes(b, ft.Partial), ft.Right)
		b = appendBytes(appendBytes(b, ft.PredSig), ft.PredPrevG)
		return appendTiming(appendBool(b, ft.NeedPrevG), ft.Timing), nil
	}
	return appendBytes(append(b, tagNodeErr), f.Err), nil
}

func (d *decoder) nodeFrame(f *NodeFrame) {
	switch d.byte() {
	case tagNodeHello:
		h := &NodeHello{Shard: d.int(), Epoch: d.uvarint()}
		d.edges(&h.Edges)
		h.Left, h.Digest, h.NeedPrevG = d.optBoundary(), d.bytes(), d.bool()
		f.Hello = h
	case tagNodeChunk:
		f.Chunk = d.newChunk()
		d.chunk(f.Chunk)
	case tagNodeFoot:
		f.Foot = &NodeFoot{Entries: d.uvarint(), Partial: d.bytes(), Right: d.optBoundary(),
			PredSig: d.bytes(), PredPrevG: d.bytes(), NeedPrevG: d.bool(), Timing: d.timing()}
	case tagNodeErr:
		f.Err = d.str()
	default:
		d.fail()
	}
}
