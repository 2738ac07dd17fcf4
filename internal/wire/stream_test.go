package wire_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
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
				Mode:         engine.EntryFilteredHidden,
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
	fx := newCodecFixture(f)
	for _, c := range fx.realChunks(f) {
		var frame bytes.Buffer
		if err := wire.WriteChunkFrame(&frame, c); err != nil {
			f.Fatal(err)
		}
		f.Add(frame.Bytes())
	}
	for _, sl := range fx.sigListFrames(f) {
		if !sl.node {
			f.Add(sl.frame)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		holdsRoundTrip(t, data, wire.WriteChunkFrame, wire.ReadChunkFrame)
	})
}

// FuzzRecycledChunkReader holds the recycling frame reader to the
// one-shot decode it shares its decoder with: any byte sequence read
// through one recycling reader (QueryStreamWith's and a draining
// NodeStream's pattern) decodes frame for frame to what fresh
// ReadChunkFrame calls give — the same chunks, down to nil versus empty
// lists and stale fields, and the same error where the sequence breaks.
// A chunk other than an entries chunk decodes fresh, so it must stay
// unchanged through every later read. And a lying length prefix reserves
// no more than frameReadAhead beyond what the reader already held.
// Seeded with a whole real stream, the sample chunks and a truncated
// frame that claims 64 MiB.
func FuzzRecycledChunkReader(f *testing.F) {
	var stream, sample bytes.Buffer
	for _, c := range newCodecFixture(f).realChunks(f) {
		if err := wire.WriteChunkFrame(&stream, c); err != nil {
			f.Fatal(err)
		}
	}
	for _, c := range sampleChunks() {
		if err := wire.WriteChunkFrame(&sample, c); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream.Bytes())
	f.Add(sample.Bytes())
	f.Add(append(bytes.Clone(sample.Bytes()), 0x03, 0xff, 0xff, 0xff, 0x72, 1, 2, 3))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []string
		var wantErr error
		for r := bytes.NewReader(data); wantErr == nil; {
			c, err := wire.ReadChunkFrame(r)
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, fmt.Sprintf("%#v", *c))
		}
		// The reservation bound: frameReadAhead before bytes arrive, then
		// at most doubling what did arrive (rounded up to a page).
		bound := max(wire.FrameReadAhead, 2*len(data)+8<<10)
		check := func(how string, i int, c *engine.Chunk, err error) bool {
			if err != nil {
				if i != len(want) || err.Error() != wantErr.Error() {
					t.Fatalf("%s: frame %d: error %v, fresh reads give %d chunks then %v", how, i, err, len(want), wantErr)
				}
				return false
			}
			if i >= len(want) || fmt.Sprintf("%#v", *c) != want[i] {
				t.Fatalf("%s: frame %d decodes differently from a fresh read", how, i)
			}
			return true
		}

		one := wire.NewRecycler(bytes.NewReader(data))
		kept := map[int]*engine.Chunk{} // the fresh chunks read so far, by frame
		for i := 0; ; i++ {
			before := one.Reserved()
			c, err := one.Next()
			if got := one.Reserved(); got > max(before, bound) {
				t.Fatalf("frame %d reserved %d bytes, held %d", i, got, before)
			}
			for j, k := range kept {
				if fmt.Sprintf("%#v", *k) != want[j] {
					t.Fatalf("frame %d: fresh chunk %d changed under it", i, j)
				}
			}
			if !check("recycling reader", i, c, err) {
				break
			}
			if c.Type != engine.ChunkEntries {
				kept[i] = c
			}
		}
	})
}

// FuzzReadStreamRequest fuzzes what any client can send /stream — a
// request frame, or a gob request through the legacy branch — with raw
// bytes: it must never panic, and an accepted request must re-encode to a
// frame that decodes to the same request. A gob-decoded value may carry
// fields the frame does not (a value's unselected fields), so sameness
// is the frame encoding's. Seeded with every codec scenario's request in
// both formats, and one asking for the timing trailer.
func FuzzReadStreamRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 42})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	add := func(req *wire.StreamRequest) {
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
	for _, sc := range codecScenarios {
		add(&wire.StreamRequest{Role: sc.role, Query: sc.q, ChunkRows: 5, Trace: sc.name})
	}
	add(&wire.StreamRequest{Role: "all", Query: codecScenarios[0].q, ChunkRows: 5, Trace: "timed", Timing: true})
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
