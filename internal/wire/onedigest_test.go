package wire_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/partition"
	"vcqr/internal/wire"
)

// TestResultRowShipsOneChainDigest pins record format 2 on the wire. A
// real stream's entries chunks, under a role that sees every column,
// ship exactly two digests per result entry — the row-id leaf and the
// chain digest C — where format 1 shipped three (the row-id leaf and
// both combined chain digests). And every tag format 1 wrote for a frame
// carrying an entry or a signed record decodes as malformed: a format-1
// peer's frame, or a cached format-1 stream, is refused, never misread.
func TestResultRowShipsOneChainDigest(t *testing.T) {
	f := newCodecFixture(t)
	size := f.h.Size()

	t.Run("two digests per result entry", func(t *testing.T) {
		st, err := f.pub.ExecuteStream("all", engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 1 << 19}, engine.StreamOpts{ChunkRows: 5})
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for _, c := range drain(t, st) {
			if c.Type != engine.ChunkEntries {
				continue
			}
			frame := frameOf(t, wire.WriteChunkFrame, c)
			back, err := wire.ReadChunkFrame(bytes.NewReader(frame))
			if err != nil {
				t.Fatal(err)
			}
			// The same chunk with every result entry's digests left out:
			// what the two digests cost is the difference, each one its
			// bytes and a length byte — less C's length byte, which a
			// missing C still writes as 0.
			stripped := *back
			stripped.Entries = append([]engine.VOEntry(nil), back.Entries...)
			results := 0
			for i := range stripped.Entries {
				e := &stripped.Entries[i]
				if e.Mode != engine.EntryResult {
					continue
				}
				results++
				if n := len(e.HiddenLeaves); n != 1 || len(e.Combined) != size {
					t.Fatalf("result entry ships %d hidden leaves and a %d-byte C, want the row-id leaf and one %d-byte C", n, len(e.Combined), size)
				}
				e.HiddenLeaves, e.Combined = nil, nil
			}
			rows += results
			digestBytes := len(frame) - len(frameOf(t, wire.WriteChunkFrame, &stripped))
			if want := results * (2*(1+size) - 1); digestBytes != want {
				t.Errorf("%d result entries ship %d digest bytes, want %d: two digests each", results, digestBytes, want)
			}
		}
		if rows == 0 {
			t.Fatal("the stream has no result entry")
		}
	})

	t.Run("format-1 tags are malformed", func(t *testing.T) {
		var entries *engine.Chunk
		byType := map[engine.ChunkType][]byte{}
		for _, c := range f.realChunks(t) {
			if _, ok := byType[c.Type]; !ok {
				byType[c.Type] = frameOf(t, wire.WriteChunkFrame, c)
			}
			if entries == nil && c.Type == engine.ChunkEntries {
				entries = c
			}
		}
		rec := f.sr.Recs[1]
		edges := partition.EdgesOf(f.set.Slices[1])
		dl := delta.Delta{Relation: "Emp", Ops: []delta.Op{{Kind: delta.OpUpsert, Key: rec.Key(), RowID: rec.Tuple.RowID, Rec: *rec}}}
		type retired struct {
			name  string
			tag   byte
			at    int // the tag's offset in the frame
			frame []byte
			read  func(io.Reader) error
		}
		chunk := func(r io.Reader) error { _, err := wire.ReadChunkFrame(r); return err }
		node := func(r io.Reader) error { _, err := wire.ReadNodeFrame(r); return err }
		var cases []retired
		for typ := engine.ChunkHeader; typ <= engine.ChunkTiming; typ++ {
			name := "chunk " + typ.String()
			if byType[typ] == nil {
				t.Fatalf("the fixture streams no %s chunk", typ)
			}
			cases = append(cases, retired{name, 0x60 + byte(typ), 4, byType[typ], chunk})
		}
		add := func(name string, tag byte, at int, frame []byte, read func(io.Reader) error) {
			cases = append(cases, retired{name, tag, at, frame, read})
		}
		add("node hello", 0x25, 4, frameOf(t, wire.WriteNodeFrame, &wire.NodeFrame{Hello: &wire.NodeHello{Shard: 1, Edges: edges}}), node)
		add("node entries chunk", 0x62, 5, frameOf(t, wire.WriteNodeFrame, &wire.NodeFrame{Chunk: entries}), node)
		add("delta", 0x3a, 4, frameOf(t, wire.DeltaBody.Write, &dl), readBody(wire.DeltaBody))
		add("node delta request", 0x3b, 4, frameOf(t, wire.NodeDeltaRequestBody.Write, &wire.NodeDeltaRequest{Delta: dl, Neighbours: []int{0}}), readBody(wire.NodeDeltaRequestBody))
		add("mirror request", 0x3c, 4, frameOf(t, wire.MirrorRequestBody.Write, &wire.MirrorRequest{Token: 1, Relation: "Emp", Shard: 1, Rec: *rec}), readBody(wire.MirrorRequestBody))
		add("edge response", 0x49, 4, frameOf(t, wire.EdgeResponseBody.Write, &wire.EdgeResponse{Epoch: 1, Edges: edges}), readBody(wire.EdgeResponseBody))
		add("node delta response", 0x4a, 4, frameOf(t, wire.NodeDeltaResponseBody.Write, &wire.NodeDeltaResponse{Token: 1, Modified: []wire.ModifiedShard{{Shard: 1, Edges: edges}}}), readBody(wire.NodeDeltaResponseBody))
		add("mirror response", 0x4b, 4, frameOf(t, wire.MirrorResponseBody.Write, &wire.MirrorResponse{Token: 1, Edges: edges}), readBody(wire.MirrorResponseBody))
		add("transfer records", 0x56, 4, frameOf(t, wire.TransferFrameBody.Write, &wire.TransferFrame{Recs: []*core.SignedRecord{rec}}), readBody(wire.TransferFrameBody))
		for _, c := range cases {
			if err := c.read(bytes.NewReader(c.frame)); err != nil {
				t.Fatalf("%s: the format-2 frame does not decode: %v", c.name, err)
			}
			old := bytes.Clone(c.frame)
			old[c.at] = c.tag
			if err := c.read(bytes.NewReader(old)); !errors.Is(err, wire.ErrMalformed) {
				t.Errorf("%s under format-1 tag %#x: %v, want the malformed-frame error", c.name, c.tag, err)
			}
		}
	})
}

// readBody adapts a body codec's reader to the retired-tag table.
func readBody[T any](b wire.Body[T]) func(io.Reader) error {
	return func(r io.Reader) error { _, err := b.Read(r); return err }
}
