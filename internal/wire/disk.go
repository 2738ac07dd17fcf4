package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/big"
	"os"
	"slices"
	"strings"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
)

// This file is the field codec (frame.go) of everything kept on disk:
// the owner's publication and client parameters files, and the records
// of a node's and a coordinator's log (internal/store, which frames and
// checksums each record). A slice has one encoding everywhere — its
// transfer frames (sliceFrames) — so a publication is its slices'
// frames, and a log's slice record the same frames behind the install
// digest. Each value has one encoding: frames nest with an exact length,
// a slice's record batches are transferBatch long but the last, maps go
// out in key order, so whatever decodes re-encodes to the bytes it was
// read from.

// ErrFileFormat refuses a file that does not open with its kind's header
// in this build's format version — among them every file an earlier
// build wrote, all of which were gob.
var ErrFileFormat = errors.New("wire: file not in this build's format")

// fileVersion is the format version every file header carries.
const fileVersion = 1

// The magics of the owner's two files.
const (
	publicationMagic = "vcqr publication\n"
	paramsMagic      = "vcqr client params\n"
)

// FileHeader is what a file of magic's kind opens with: the magic, then
// the format version.
func FileHeader(magic string) []byte { return append([]byte(magic), fileVersion) }

// CutFileHeader returns what follows data's header, refusing data that
// does not open with the header FileHeader(magic) writes: another kind
// of file, another format version, or a gob file of an earlier build.
func CutFileHeader(data []byte, magic string) ([]byte, error) {
	if rest, ok := bytes.CutPrefix(data, FileHeader(magic)); ok {
		return rest, nil
	}
	return nil, fmt.Errorf("%w: no %q header of format version %d (a gob file of an earlier build?)", ErrFileFormat, strings.TrimSpace(magic), fileVersion)
}

// --- slices -----------------------------------------------------------

// appendSlice appends a slice as its transfer frames.
func appendSlice(b []byte, man ShardManifest, sr *core.SignedRelation) ([]byte, error) {
	err := sliceFrames(man, sr, func(f *TransferFrame) (err error) {
		b, err = appendFrame(b, f, MaxChunkFrame, appendTransferFrame)
		return err
	})
	return b, err
}

// frame decodes one frame nested in the payload with get, which must
// consume the frame's payload exactly.
func (d *decoder) frame(get func(*decoder)) {
	if d.err != nil || len(d.b) < frameHeader {
		d.fail()
		return
	}
	n, rest := binary.BigEndian.Uint32(d.b), d.b[frameHeader:]
	if uint64(n) > uint64(len(rest)) || n > MaxChunkFrame {
		d.fail()
		return
	}
	sub := decoder{b: rest[:n:n]}
	d.b = rest[n:]
	get(&sub)
	if sub.done() != nil {
		d.fail()
	}
}

// slice decodes a slice's transfer frames (readSlice) into man and the
// returned relation, whose records alias the payload.
func (d *decoder) slice(man *ShardManifest) *core.SignedRelation {
	m, sr, err := readSlice(func(f *TransferFrame) error {
		d.frame(func(fd *decoder) { fd.transferFrame(f) })
		return d.err
	})
	if err != nil {
		d.fail()
	}
	*man = m
	return sr
}

// placed fails the decode unless a slice's manifest places it as want
// does; its params, schema and count are the slice's own.
func (d *decoder) placed(man, want ShardManifest) {
	if man.Shard != want.Shard || !man.Spec.Same(want.Spec) || man.Epoch != want.Epoch || man.Deltas != want.Deltas {
		d.fail()
	}
}

// --- the owner's files ------------------------------------------------

// EncodePublication serializes the publication vcsign writes and vcserve
// loads: the header, then every slice's transfer frames in shard order.
// An unpartitioned relation is a one-shard set.
func EncodePublication(set *partition.Set) ([]byte, error) {
	b := FileHeader(publicationMagic)
	for i, sl := range set.Slices {
		var err error
		if b, err = appendSlice(b, ShardManifest{Spec: set.Spec, Shard: i}, sl); err != nil {
			return nil, fmt.Errorf("wire: encode publication: %w", err)
		}
	}
	return b, nil
}

// DecodePublication deserializes a publication, refusing one signed in
// another record format (core.ErrRecordFormat). Publishers must still
// validate it against the owner's public key.
func DecodePublication(data []byte) (*partition.Set, error) {
	p, err := CutFileHeader(data, publicationMagic)
	if err != nil {
		return nil, err
	}
	d := decoder{b: p}
	set := new(partition.Set)
	for i := 0; d.err == nil && (i == 0 || i < set.Spec.K()); i++ {
		var man ShardManifest
		sl := d.slice(&man)
		if i == 0 {
			set.Spec = man.Spec
		}
		d.placed(man, ShardManifest{Spec: set.Spec, Shard: i})
		set.Slices = append(set.Slices, sl)
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("wire: decode publication: %w", err)
	}
	// A set's slices share their params (partition.Set.Validate).
	if err := set.Slices[0].Params.CheckFormat(); err != nil {
		return nil, fmt.Errorf("wire: publication: %w", err)
	}
	return set, nil
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
	if err := os.WriteFile(path, appendClientParams(FileHeader(paramsMagic), &cp), 0o644); err != nil {
		return fmt.Errorf("wire: write params: %w", err)
	}
	return nil
}

// ReadClientParams loads a parameters file, refusing one the owner wrote
// for another record format (core.ErrRecordFormat).
func ReadClientParams(path string) (ClientParams, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ClientParams{}, fmt.Errorf("wire: read params: %w", err)
	}
	cp, err := decodeClientParams(data)
	if err != nil {
		return ClientParams{}, fmt.Errorf("wire: params %s: %w", path, err)
	}
	return cp, nil
}

func appendClientParams(b []byte, cp *ClientParams) []byte {
	var n []byte
	if cp.N != nil {
		n = cp.N.Bytes()
	}
	b = appendSchema(appendParams(appendInt(appendBytes(b, n), cp.E), &cp.Params), &cp.Schema)
	b = binary.AppendUvarint(b, uint64(len(cp.Roles)))
	for _, name := range slices.Sorted(maps.Keys(cp.Roles)) {
		r := cp.Roles[name]
		b = binary.AppendUvarint(binary.AppendUvarint(appendBytes(appendBytes(b, name), r.Name), r.KeyLo), r.KeyHi)
		b = appendBytes(appendList(b, r.Cols), r.VisibilityCol)
	}
	if b = appendBool(b, cp.Partition != nil); cp.Partition != nil {
		b = appendSpec(b, cp.Partition)
	}
	return b
}

func decodeClientParams(data []byte) (ClientParams, error) {
	p, err := CutFileHeader(data, paramsMagic)
	if err != nil {
		return ClientParams{}, err
	}
	d := decoder{b: p}
	var cp ClientParams
	if n := d.bytes(); n != nil {
		if n[0] == 0 {
			d.fail() // a leading zero byte: not what big.Int.Bytes writes
		}
		cp.N = new(big.Int).SetBytes(n)
	}
	cp.E = d.int()
	d.params(&cp.Params)
	d.schema(&cp.Schema)
	if n := d.count(6); n > 0 {
		cp.Roles = make(map[string]accessctl.Role, n)
		d.sorted(n, func(name string) {
			r := accessctl.Role{Name: d.str(), KeyLo: d.uvarint(), KeyHi: d.uvarint()}
			r.Cols = fill(&d, alloc[string](&d, 1))
			r.VisibilityCol = d.str()
			cp.Roles[name] = r
		})
	}
	if d.bool() {
		cp.Partition = new(partition.Spec)
		d.spec(cp.Partition)
	}
	if err := d.done(); err != nil {
		return ClientParams{}, fmt.Errorf("wire: decode params: %w", err)
	}
	if err := cp.Params.CheckFormat(); err != nil {
		return ClientParams{}, err
	}
	return cp, nil
}

// --- log records ------------------------------------------------------

// NodeRecord is one record of a node's log: exactly one field set.
type NodeRecord struct {
	// Slice installs a slice, or is one of a compacted log's.
	Slice  *SliceRecord
	Remove *ShardRef
	Commit *CommitRecord
}

// SliceRecord is one hosted slice: its manifest (spec, shard, and the
// deltas committed to it since install), its digest at install and the
// slice.
type SliceRecord struct {
	Manifest      ShardManifest
	InstallDigest hashx.Digest
	Slice         *core.SignedRelation
}

// CommitRecord is a committed distributed delta, shard by shard.
type CommitRecord struct {
	Relation string
	Shards   []ShardCommit
}

// ShardCommit is one shard's share of a commit: the identity-keyed ops
// that transform the durable slice into the committed one, or that slice
// whole (Full), and the digest the result hashes to.
type ShardCommit struct {
	Shard      int
	PostDigest hashx.Digest
	Ops        []delta.Op
	Full       *core.SignedRelation
}

// AppendNodeRecord appends r's encoding: its tag, then its fields.
func AppendNodeRecord(b []byte, r *NodeRecord) ([]byte, error) {
	switch {
	case r.Slice != nil:
		b = appendBytes(append(b, tagSliceRecord), r.Slice.InstallDigest)
		return appendSlice(b, r.Slice.Manifest, r.Slice.Slice)
	case r.Remove != nil:
		return appendInt(appendBytes(append(b, tagRemoveRecord), r.Remove.Relation), r.Remove.Shard), nil
	}
	c := r.Commit
	b = binary.AppendUvarint(appendBytes(append(b, tagCommitRecord), c.Relation), uint64(len(c.Shards)))
	for _, cs := range c.Shards {
		b = appendBool(appendBytes(appendInt(b, cs.Shard), cs.PostDigest), cs.Full != nil)
		if cs.Full == nil {
			b = appendOps(b, cs.Ops)
			continue
		}
		var err error
		if b, err = appendSlice(b, ShardManifest{Shard: cs.Shard}, cs.Full); err != nil {
			return b, err
		}
	}
	return b, nil
}

// DecodeNodeRecord decodes one node log record, refusing anything else
// as malformed. Every slice, op and digest it holds aliases p.
func DecodeNodeRecord(p []byte) (*NodeRecord, error) {
	d := decoder{b: p}
	r := new(NodeRecord)
	switch d.byte() {
	case tagSliceRecord:
		r.Slice = &SliceRecord{InstallDigest: d.bytes()}
		r.Slice.Slice = d.slice(&r.Slice.Manifest)
	case tagRemoveRecord:
		r.Remove = &ShardRef{Relation: d.str(), Shard: d.int()}
	case tagCommitRecord:
		c := &CommitRecord{Relation: d.str()}
		c.Shards = alloc[ShardCommit](&d, 3)
		for i := range c.Shards {
			cs := &c.Shards[i]
			cs.Shard, cs.PostDigest = d.int(), d.bytes()
			if !d.bool() {
				cs.Ops = d.ops()
				continue
			}
			var man ShardManifest
			cs.Full = d.slice(&man)
			d.placed(man, ShardManifest{Shard: cs.Shard})
		}
		r.Commit = c
	default:
		d.fail()
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return r, nil
}

// CoordRecord is one record of a coordinator's log: exactly one field
// set.
type CoordRecord struct {
	Routing     *RoutingRecord
	StagedBegin *StagedBegin
	StagedEnd   *StagedEnd
}

// RoutingRecord is a routing table at its epoch.
type RoutingRecord struct {
	Epoch uint64
	Route [][]string
}

// StagedBegin opens a two-phase delta's commit fan-out: the relation and
// every node's staged token.
type StagedBegin struct {
	Relation string
	Tokens   map[string]uint64
}

// StagedEnd resolves a two-phase delta.
type StagedEnd struct {
	Relation  string
	Committed bool
}

// AppendCoordRecord appends r's encoding: its tag, then its fields, a
// staged delta's tokens in node order.
func AppendCoordRecord(b []byte, r *CoordRecord) []byte {
	switch {
	case r.Routing != nil:
		b = binary.AppendUvarint(binary.AppendUvarint(append(b, tagRoutingRecord), r.Routing.Epoch), uint64(len(r.Routing.Route)))
		for _, set := range r.Routing.Route {
			b = appendList(b, set)
		}
		return b
	case r.StagedBegin != nil:
		s := r.StagedBegin
		b = binary.AppendUvarint(appendBytes(append(b, tagStagedBegin), s.Relation), uint64(len(s.Tokens)))
		for _, node := range slices.Sorted(maps.Keys(s.Tokens)) {
			b = binary.AppendUvarint(appendBytes(b, node), s.Tokens[node])
		}
		return b
	}
	return appendBool(appendBytes(append(b, tagStagedEnd), r.StagedEnd.Relation), r.StagedEnd.Committed)
}

// DecodeCoordRecord decodes one coordinator log record, refusing
// anything else as malformed.
func DecodeCoordRecord(p []byte) (*CoordRecord, error) {
	d := decoder{b: p}
	r := new(CoordRecord)
	switch d.byte() {
	case tagRoutingRecord:
		r.Routing = &RoutingRecord{Epoch: d.uvarint(), Route: alloc[[]string](&d, 1)}
		for i := range r.Routing.Route {
			r.Routing.Route[i] = fill(&d, alloc[string](&d, 1))
		}
	case tagStagedBegin:
		s := &StagedBegin{Relation: d.str()}
		if n := d.count(2); n > 0 {
			s.Tokens = make(map[string]uint64, n)
			d.sorted(n, func(node string) { s.Tokens[node] = d.uvarint() })
		}
		r.StagedBegin = s
	case tagStagedEnd:
		r.StagedEnd = &StagedEnd{Relation: d.str(), Committed: d.bool()}
	default:
		d.fail()
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return r, nil
}
