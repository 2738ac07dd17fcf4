package wire

import (
	"encoding/binary"
	"io"
	"maps"
	"slices"

	"vcqr/internal/basep"
	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
)

// This file is the field codec (frame.go) of every request and reply
// body the endpoint table declares, of the shard-transfer frames and of
// the heartbeats: each body is one frame whose payload is its own tag
// (codec.go) followed by the fields written below, in that order. A body
// frame may claim up to MaxDeltaBody, the largest row cap; what a handler
// reads is bounded by its row's own cap and what a caller reads by the
// row's ReplyCap (endpoint.go).
//
// Ownership is the frames' rule (ReadChunkFrame): every digest,
// signature and record of a decoded body aliases that body's one frame
// buffer. A staged slice that keeps a delta op's or a mirror fix's record
// therefore keeps that request's frame alive, and whoever edits decoded
// bytes in place clones them first.

// body is the codec of one body type: one frame, tag, then put's fields.
func body[T any](tag byte, put func([]byte, *T) []byte, get func(*decoder, *T)) codec[T] {
	return codec[T]{
		w: func(w io.Writer, v *T) error {
			return encodeFrame(w, v, MaxDeltaBody, func(b []byte, v *T) ([]byte, error) {
				return put(append(b, tag), v), nil
			})
		},
		r: func(r io.Reader, v *T) error {
			return decodeFrame(r, v, MaxDeltaBody, func(d *decoder, v *T) {
				d.tag(tag)
				get(d, v)
			})
		},
	}
}

// --- requests ---------------------------------------------------------

var (
	streamRequestBody = body(tagStreamRequest, func(b []byte, r *StreamRequest) []byte {
		b = appendQuery(appendBytes(b, r.Role), &r.Query)
		return appendBool(appendBytes(appendInt(b, r.ChunkRows), r.Trace), r.Timing)
	}, func(d *decoder, r *StreamRequest) {
		r.Role = d.str()
		d.query(&r.Query)
		r.ChunkRows, r.Trace, r.Timing = d.int(), d.str(), d.bool()
	})

	shardStreamRequestBody = body(tagShardStreamRequest, func(b []byte, r *ShardStreamRequest) []byte {
		b = appendInt(appendQuery(appendBytes(b, r.Role), &r.Query), r.Shard)
		b = appendBool(appendBool(binary.AppendUvarint(binary.AppendUvarint(b, r.Lo), r.Hi), r.First), r.Last)
		return appendBytes(binary.AppendUvarint(appendInt(b, r.ChunkRows), r.RoutingEpoch), r.Trace)
	}, func(d *decoder, r *ShardStreamRequest) {
		r.Role = d.str()
		d.query(&r.Query)
		r.Shard, r.Lo, r.Hi, r.First, r.Last = d.int(), d.uvarint(), d.uvarint(), d.bool(), d.bool()
		r.ChunkRows, r.RoutingEpoch, r.Trace = d.int(), d.uvarint(), d.str()
	})

	shardRefBody = body(tagShardRef, func(b []byte, r *ShardRef) []byte {
		return appendInt(appendBytes(b, r.Relation), r.Shard)
	}, func(d *decoder, r *ShardRef) {
		r.Relation, r.Shard = d.str(), d.int()
	})

	deltaBody = body(tagDelta, appendDelta, (*decoder).batch)

	nodeDeltaRequestBody = body(tagNodeDeltaRequest, func(b []byte, r *NodeDeltaRequest) []byte {
		b = binary.AppendUvarint(appendDelta(b, &r.Delta), uint64(len(r.Neighbours)))
		for _, i := range r.Neighbours {
			b = appendInt(b, i)
		}
		return b
	}, func(d *decoder, r *NodeDeltaRequest) {
		d.batch(&r.Delta)
		r.Neighbours = alloc[int](d, 1)
		for i := range r.Neighbours {
			r.Neighbours[i] = d.int()
		}
	})

	mirrorRequestBody = body(tagMirrorRequest, func(b []byte, r *MirrorRequest) []byte {
		b = appendInt(appendBytes(binary.AppendUvarint(b, r.Token), r.Relation), r.Shard)
		return appendRecord(appendBool(b, r.Left), &r.Rec)
	}, func(d *decoder, r *MirrorRequest) {
		r.Token, r.Relation, r.Shard, r.Left = d.uvarint(), d.str(), d.int(), d.bool()
		d.record(&r.Rec)
	})

	txRequestBody = body(tagTxRequest, func(b []byte, r *TxRequest) []byte {
		return appendBool(binary.AppendUvarint(appendBytes(b, r.Relation), r.Token), r.Commit)
	}, func(d *decoder, r *TxRequest) {
		r.Relation, r.Token, r.Commit = d.str(), d.uvarint(), d.bool()
	})

	hostedRequestBody = body(tagHostedRequest, func(b []byte, _ *struct{}) []byte { return b },
		func(*decoder, *struct{}) {})

	leaseRequestBody = body(tagLeaseRequest, func(b []byte, r *LeaseRequest) []byte {
		b = binary.AppendUvarint(appendBytes(b, r.Coordinator), r.Epoch)
		return binary.AppendUvarint(binary.AppendVarint(b, r.TTLMillis), r.Seq)
	}, func(d *decoder, r *LeaseRequest) {
		r.Coordinator, r.Epoch, r.TTLMillis, r.Seq = d.str(), d.uvarint(), d.varint(), d.uvarint()
	})
)

func appendDelta(b []byte, dl *delta.Delta) []byte {
	return appendOps(appendBytes(b, dl.Relation), dl.Ops)
}

// batch decodes a delta.
func (d *decoder) batch(dl *delta.Delta) {
	dl.Relation, dl.Ops = d.str(), d.ops()
}

// appendOps writes a delta's operations — also a commit record's
// (disk.go).
func appendOps(b []byte, ops []delta.Op) []byte {
	b = binary.AppendUvarint(b, uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		b = binary.AppendUvarint(binary.AppendUvarint(append(b, byte(op.Kind)), op.Key), op.RowID)
		b = appendRecord(b, &op.Rec)
	}
	return b
}

// ops decodes a delta's operations; a delete's record is the zero record
// it was.
func (d *decoder) ops() []delta.Op {
	ops := alloc[delta.Op](d, 3+minRecord)
	for i := range ops {
		op := &ops[i]
		op.Kind, op.Key, op.RowID = delta.OpKind(d.byte()), d.uvarint(), d.uvarint()
		d.record(&op.Rec)
	}
	return ops
}

// --- replies ----------------------------------------------------------

var (
	deltaResponseBody = body(tagDeltaResponse, func(b []byte, r *DeltaResponse) []byte {
		return appendBytes(binary.AppendUvarint(b, r.Epoch), r.Err)
	}, func(d *decoder, r *DeltaResponse) {
		r.Epoch, r.Err = d.uvarint(), d.str()
	})

	edgeResponseBody = body(tagEdgeResponse, func(b []byte, r *EdgeResponse) []byte {
		return appendBytes(appendEdges(binary.AppendUvarint(b, r.Epoch), &r.Edges), r.Err)
	}, func(d *decoder, r *EdgeResponse) {
		r.Epoch = d.uvarint()
		d.edges(&r.Edges)
		r.Err = d.str()
	})

	digestResponseBody = body(tagDigestResponse, func(b []byte, r *DigestResponse) []byte {
		b = appendBytes(appendBytes(binary.AppendUvarint(b, r.Epoch), r.Digest), r.InstallDigest)
		return appendBytes(binary.AppendUvarint(appendInt(b, r.Records), r.Deltas), r.Err)
	}, func(d *decoder, r *DigestResponse) {
		r.Epoch, r.Digest, r.InstallDigest = d.uvarint(), d.bytes(), d.bytes()
		r.Records, r.Deltas, r.Err = d.int(), d.uvarint(), d.str()
	})

	// The inventory's relations go out in name order, so one inventory
	// has one encoding; a name out of order or twice is malformed.
	hostedResponseBody = body(tagHostedResponse, func(b []byte, r *HostedResponse) []byte {
		b = binary.AppendUvarint(b, uint64(len(r.Relations)))
		for _, name := range slices.Sorted(maps.Keys(r.Relations)) {
			info := r.Relations[name]
			b = binary.AppendUvarint(appendSpec(appendBytes(b, name), &info.Spec), uint64(len(info.Shards)))
			for _, s := range info.Shards {
				b = appendBytes(appendBytes(binary.AppendUvarint(appendInt(b, s.Shard), s.Epoch), s.Digest), s.InstallDigest)
				b = binary.AppendUvarint(appendInt(b, s.Records), s.Deltas)
			}
		}
		return appendBytes(b, r.Err)
	}, func(d *decoder, r *HostedResponse) {
		if n := d.count(5); n > 0 {
			r.Relations = make(map[string]HostedInfo, n)
			d.sorted(n, func(name string) {
				var info HostedInfo
				d.spec(&info.Spec)
				info.Shards = alloc[HostedShard](d, 6)
				for i := range info.Shards {
					info.Shards[i] = HostedShard{Shard: d.int(), Epoch: d.uvarint(), Digest: d.bytes(),
						InstallDigest: d.bytes(), Records: d.int(), Deltas: d.uvarint()}
				}
				r.Relations[name] = info
			})
		}
		r.Err = d.str()
	})

	okResponseBody = body(tagOKResponse, func(b []byte, r *OKResponse) []byte {
		return appendBytes(binary.AppendUvarint(b, r.Epoch), r.Err)
	}, func(d *decoder, r *OKResponse) {
		r.Epoch, r.Err = d.uvarint(), d.str()
	})

	nodeDeltaResponseBody = body(tagNodeDeltaResponse, func(b []byte, r *NodeDeltaResponse) []byte {
		b = appendShardEdges(binary.AppendUvarint(b, r.Token), r.Modified)
		return appendBytes(appendShardEdges(b, r.Neighbours), r.Err)
	}, func(d *decoder, r *NodeDeltaResponse) {
		r.Token = d.uvarint()
		r.Modified, r.Neighbours = d.shardEdges(), d.shardEdges()
		r.Err = d.str()
	})

	mirrorResponseBody = body(tagMirrorResponse, func(b []byte, r *MirrorResponse) []byte {
		return appendBytes(appendEdges(binary.AppendUvarint(b, r.Token), &r.Edges), r.Err)
	}, func(d *decoder, r *MirrorResponse) {
		r.Token = d.uvarint()
		d.edges(&r.Edges)
		r.Err = d.str()
	})

	leaseResponseBody = body(tagLeaseResponse, func(b []byte, r *LeaseResponse) []byte {
		b = binary.AppendUvarint(appendInt(binary.AppendUvarint(b, r.Epoch), r.Hosted), r.Inflight)
		return appendBytes(b, r.Err)
	}, func(d *decoder, r *LeaseResponse) {
		r.Epoch, r.Hosted, r.Inflight, r.Err = d.uvarint(), d.int(), d.uvarint(), d.str()
	})
)

func appendSpec(b []byte, s *partition.Spec) []byte {
	b = binary.AppendUvarint(appendBytes(b, s.Relation), uint64(len(s.Cuts)))
	for _, c := range s.Cuts {
		b = binary.AppendUvarint(b, c)
	}
	return binary.AppendUvarint(b, s.Version)
}

func (d *decoder) spec(s *partition.Spec) {
	s.Relation = d.str()
	s.Cuts = alloc[uint64](d, 1)
	for i := range s.Cuts {
		s.Cuts[i] = d.uvarint()
	}
	s.Version = d.uvarint()
}

// appendParams and appendSchema write what a verifier needs besides the
// key: a transfer manifest's and the client parameters file's (disk.go).
func appendParams(b []byte, p *core.Params) []byte {
	b = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(b, p.L), p.U), p.BP.B)
	return binary.AppendUvarint(binary.AppendUvarint(appendInt(b, p.BP.Digits), p.Version), p.Format)
}

func (d *decoder) params(p *core.Params) {
	*p = core.Params{L: d.uvarint(), U: d.uvarint(),
		BP: basep.Params{B: d.uvarint(), Digits: d.int()}, Version: d.uvarint(), Format: d.uvarint()}
}

func appendSchema(b []byte, s *relation.Schema) []byte {
	b = binary.AppendUvarint(appendBytes(appendBytes(b, s.Name), s.KeyName), uint64(len(s.Cols)))
	for _, c := range s.Cols {
		b = appendInt(appendBytes(b, c.Name), int(c.Type))
	}
	return b
}

func (d *decoder) schema(s *relation.Schema) {
	s.Name, s.KeyName = d.str(), d.str()
	s.Cols = alloc[relation.Column](d, 2)
	for i := range s.Cols {
		s.Cols[i] = relation.Column{Name: d.str(), Type: relation.Type(d.int())}
	}
}

// appendShardEdges writes a counted run of per-shard seam material.
func appendShardEdges(b []byte, l []ModifiedShard) []byte {
	b = binary.AppendUvarint(b, uint64(len(l)))
	for i := range l {
		b = appendEdges(appendInt(b, l[i].Shard), &l[i].Edges)
	}
	return b
}

func (d *decoder) shardEdges() []ModifiedShard {
	l := alloc[ModifiedShard](d, 1+6*minRecord)
	for i := range l {
		l[i].Shard = d.int()
		d.edges(&l[i].Edges)
	}
	return l
}

// --- shard-transfer frames --------------------------------------------

// Transfer frames ride the chunk frames' MaxChunkFrame cap: a slice ships
// as many frames of transferBatch records.
func writeTransferFrame(w io.Writer, f *TransferFrame) error {
	return encodeFrame(w, f, MaxChunkFrame, appendTransferFrame)
}

func readTransferFrame(r io.Reader, f *TransferFrame) error {
	return decodeFrame(r, f, MaxChunkFrame, (*decoder).transferFrame)
}

func appendTransferFrame(b []byte, f *TransferFrame) ([]byte, error) {
	switch {
	case f.Manifest != nil:
		m := f.Manifest
		b = appendInt(appendSpec(append(b, tagTransferManifest), &m.Spec), m.Shard)
		b = appendSchema(appendParams(b, &m.Params), &m.Schema)
		return binary.AppendUvarint(binary.AppendUvarint(appendInt(b, m.Records), m.Epoch), m.Deltas), nil
	case f.Foot != nil:
		return appendBytes(append(b, tagTransferFoot), f.Foot.Digest), nil
	case len(f.Recs) > 0:
		b = binary.AppendUvarint(append(b, tagTransferRecs), uint64(len(f.Recs)))
		for _, rec := range f.Recs {
			b = appendRecord(b, rec)
		}
		return b, nil
	}
	return appendBytes(append(b, tagTransferErr), f.Err), nil
}

func (d *decoder) transferFrame(f *TransferFrame) {
	switch d.byte() {
	case tagTransferManifest:
		m := new(ShardManifest)
		d.spec(&m.Spec)
		m.Shard = d.int()
		d.params(&m.Params)
		d.schema(&m.Schema)
		m.Records, m.Epoch, m.Deltas = d.int(), d.uvarint(), d.uvarint()
		f.Manifest = m
	case tagTransferRecs:
		// The batch is one backing array the slice's records point into.
		batch := alloc[core.SignedRecord](d, minRecord)
		f.Recs = make([]*core.SignedRecord, len(batch))
		for i := range batch {
			d.record(&batch[i])
			f.Recs[i] = &batch[i]
		}
	case tagTransferFoot:
		f.Foot = &TransferFoot{Digest: d.bytes()}
	case tagTransferErr:
		f.Err = d.str()
	default:
		d.fail()
	}
}
