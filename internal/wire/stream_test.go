package wire_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"reflect"
	"testing"

	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/wire"
)

func sampleChunks() []*engine.Chunk {
	h := hashx.New()
	return []*engine.Chunk{
		{
			Type:      engine.ChunkHeader,
			Seq:       0,
			Relation:  "Emp",
			Effective: engine.Query{Relation: "Emp", KeyLo: 10, KeyHi: 99},
			KeyLo:     10,
			KeyHi:     99,
		},
		{
			Type: engine.ChunkEntries,
			Seq:  1,
			Entries: []engine.VOEntry{{
				Mode:         engine.EntryElidedDup,
				G:            h.Hash([]byte("g")),
				HiddenLeaves: []hashx.Digest{h.Hash([]byte("leaf"))},
			}},
		},
		{Type: engine.ChunkFooter, Seq: 2, PredPrevG: h.Hash([]byte("pred"))},
	}
}

// TestChunkFrameRoundTrip writes frames back to back and reads them out
// again — each frame independently decodable, clean EOF at the end.
func TestChunkFrameRoundTrip(t *testing.T) {
	chunks := sampleChunks()
	var buf bytes.Buffer
	for _, c := range chunks {
		if err := wire.WriteChunkFrame(&buf, c); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, want := range chunks {
		got, err := wire.ReadChunkFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := wire.ReadChunkFrame(r); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestChunkFrameTruncation checks that a stream dying mid-frame is a
// named error, not a silent EOF.
func TestChunkFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := wire.WriteChunkFrame(&buf, sampleChunks()[0]); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, 3, len(full) / 2, len(full) - 1} {
		if _, err := wire.ReadChunkFrame(bytes.NewReader(full[:cut])); !errors.Is(err, wire.ErrFrameTruncated) {
			t.Fatalf("cut at %d: %v, want ErrFrameTruncated", cut, err)
		}
	}
}

// TestChunkFrameSizeLimit checks the length-prefix cap: a frame claiming
// more than MaxChunkFrame bytes is rejected before allocation.
func TestChunkFrameSizeLimit(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(wire.MaxChunkFrame+1))
	if _, err := wire.ReadChunkFrame(bytes.NewReader(hdr[:])); !errors.Is(err, wire.ErrFrameTooBig) {
		t.Fatalf("oversized frame: %v, want ErrFrameTooBig", err)
	}
}

// TestChunkFrameGarbage checks that bytes no encoder wrote — prose, and a
// gob chunk as the previous format framed it — fail cleanly.
func TestChunkFrameGarbage(t *testing.T) {
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(sampleChunks()[1]); err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{[]byte("this is not a chunk"), old.Bytes()} {
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
		if _, err := wire.ReadChunkFrame(bytes.NewReader(append(frame, body...))); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("garbage frame decoded: %v, want the malformed-frame error", err)
		}
	}
}

// FuzzReadChunkFrame fuzzes the frame decoder with raw bytes: it must
// never panic, and any chunk it accepts must re-encode to a frame that
// decodes to the same chunk. Seeded with hand-made frames and with every
// chunk the codec fixture's real streams emit.
func FuzzReadChunkFrame(f *testing.F) {
	var seed bytes.Buffer
	for _, c := range sampleChunks() {
		if err := wire.WriteChunkFrame(&seed, c); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 42})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	for _, c := range newCodecFixture(f).realChunks(f) {
		var frame bytes.Buffer
		if err := wire.WriteChunkFrame(&frame, c); err != nil {
			f.Fatal(err)
		}
		f.Add(frame.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		holdsRoundTrip(t, data, wire.WriteChunkFrame, wire.ReadChunkFrame)
	})
}

// FuzzReadStreamRequest fuzzes what any client can send /stream — a
// request frame, or a gob request through the legacy branch — with raw
// bytes: it must never panic, and an accepted request must re-encode to a
// frame that decodes to the same request. A gob-decoded value may carry
// fields the frame does not (a value's unselected fields), so sameness
// is the frame encoding's. Seeded with every codec scenario's request in
// both formats.
func FuzzReadStreamRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 42})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	for _, sc := range codecScenarios {
		req := &wire.StreamRequest{Role: sc.role, Query: sc.q, ChunkRows: 5, Trace: sc.name}
		var frame, legacy bytes.Buffer
		if err := wire.WriteStreamRequest(&frame, req); err != nil {
			f.Fatal(err)
		}
		if err := gob.NewEncoder(&legacy).Encode(*req); err != nil {
			f.Fatal(err)
		}
		f.Add(frame.Bytes())
		f.Add(legacy.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := wire.StreamRequestBody.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		again := frameOf(t, wire.WriteStreamRequest, req)
		req2, err := wire.StreamRequestBody.Read(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if !bytes.Equal(frameOf(t, wire.WriteStreamRequest, req2), again) {
			t.Fatalf("re-encoded request decodes to %+v, want %+v", req2, req)
		}
	})
}
