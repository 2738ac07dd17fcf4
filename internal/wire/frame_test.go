package wire_test

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"vcqr/internal/hashx"
	"vcqr/internal/wire"
)

// typedFrame adapts one typed frame wrapper pair to the shape the
// round-trip property needs.
func typedFrame[T any](name string, v *T, write func(io.Writer, *T) error, read func(io.Reader) (*T, error)) frameCase {
	return frameCase{
		name:  name,
		write: func(w io.Writer) error { return write(w, v) },
		read:  func(r io.Reader) (any, error) { return read(r) },
		want:  v,
	}
}

type frameCase struct {
	name  string
	write func(io.Writer) error
	read  func(io.Reader) (any, error)
	want  any
}

// TestTypedFramesShareOneEnvelope: every typed frame wrapper — chunk,
// node, lease, and each cache operation and reply — decodes what it
// encoded, ends a stream with a bare io.EOF exactly at a frame boundary,
// and answers one trailing byte, one missing byte and an oversize length
// prefix with the shared sentinel errors.
func TestTypedFramesShareOneEnvelope(t *testing.T) {
	sum := hashx.New().Hash([]byte("entry-bytes"))
	cases := []frameCase{
		typedFrame("chunk", sampleChunks()[1], wire.WriteChunkFrame, wire.ReadChunkFrame),
		typedFrame("node hello", &wire.NodeFrame{Hello: &wire.NodeHello{Shard: 1, Epoch: 2, Digest: sum}}, wire.WriteNodeFrame, wire.ReadNodeFrame),
		typedFrame("node chunk", &wire.NodeFrame{Chunk: sampleChunks()[1]}, wire.WriteNodeFrame, wire.ReadNodeFrame),
		typedFrame("node error", &wire.NodeFrame{Err: "boom"}, wire.WriteNodeFrame, wire.ReadNodeFrame),
		typedFrame("lease request", &wire.LeaseRequest{Coordinator: "c", Epoch: 7, TTLMillis: 1500, Seq: 3}, wire.WriteLeaseRequest, wire.ReadLeaseRequest),
		typedFrame("lease response", &wire.LeaseResponse{Epoch: 7, Hosted: 2, Inflight: 5, Err: "late"}, wire.WriteLeaseResponse, wire.ReadLeaseResponse),
		typedFrame("cache reply", &wire.CacheReply{Hit: true, Sum: sum, Bytes: []byte("entry-bytes"), Dropped: 3,
			Stats: &wire.CacheStats{Entries: 1, Bytes: 2, Budget: 3, Hits: 4, Misses: 5, Puts: 6, Evictions: 7, Invalidations: 8},
			Err:   "x"}, wire.WriteCacheReply, wire.ReadCacheReply),
	}
	for _, f := range sampleCacheFrames() {
		name := "cache stats"
		switch {
		case f.Get != nil:
			name = "cache get"
		case f.Put != nil:
			name = "cache put"
		case f.Sweep != nil:
			name = "cache sweep"
		}
		cases = append(cases, typedFrame(name, f, wire.WriteCacheFrame, wire.ReadCacheFrame))
	}

	for _, tc := range cases {
		var buf bytes.Buffer
		if err := tc.write(&buf); err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		frame := buf.Bytes()

		r := bytes.NewReader(frame)
		got, err := tc.read(r)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: decoded %+v (%v), want %+v", tc.name, got, err, tc.want)
		}
		if _, err := tc.read(r); err != io.EOF {
			t.Errorf("%s: read at the frame boundary = %v, want io.EOF", tc.name, err)
		}

		r = bytes.NewReader(append(append([]byte(nil), frame...), 0))
		if _, err := tc.read(r); err != nil {
			t.Errorf("%s: frame before a trailing byte: %v", tc.name, err)
		}
		if _, err := tc.read(r); !errors.Is(err, wire.ErrFrameTruncated) {
			t.Errorf("%s: one trailing byte = %v, want ErrFrameTruncated", tc.name, err)
		}
		if _, err := tc.read(bytes.NewReader(frame[:len(frame)-1])); !errors.Is(err, wire.ErrFrameTruncated) {
			t.Errorf("%s: one missing byte = %v, want ErrFrameTruncated", tc.name, err)
		}
		if _, err := tc.read(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); !errors.Is(err, wire.ErrFrameTooBig) {
			t.Errorf("%s: oversize length prefix = %v, want ErrFrameTooBig", tc.name, err)
		}
	}
}

// TestLyingFrameHeaderCostsLittle: a length prefix claiming a full
// MaxChunkFrame over an empty body is a truncated frame, and the claim
// alone must not allocate — on the cache frames as on the chunk frames.
func TestLyingFrameHeaderCostsLittle(t *testing.T) {
	hdr := []byte{0x04, 0x00, 0x00, 0x00} // 64 MiB == MaxChunkFrame
	for name, read := range map[string]func(io.Reader) error{
		"cache frame": func(r io.Reader) error { _, err := wire.ReadCacheFrame(r); return err },
		"cache reply": func(r io.Reader) error { _, err := wire.ReadCacheReply(r); return err },
		"chunk frame": func(r io.Reader) error { _, err := wire.ReadChunkFrame(r); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read(bytes.NewReader(hdr))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, wire.ErrFrameTruncated) {
			t.Errorf("%s: lying header = %v, want ErrFrameTruncated", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 512<<10 {
			t.Errorf("%s: a lying 4-byte header allocated %d bytes", name, grew)
		}
	}
}
