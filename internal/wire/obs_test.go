package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"vcqr/internal/engine"
	"vcqr/internal/obs"
)

// These tests pin the tracing fields on the wire. On requests they are
// plain fields of the request's frame: a traced request round trips
// field-exact and an untraced one decodes with them zero. The one gob
// request format still read — a /stream request from a client built
// before the field codec — decodes with them zero when it predates them.
// On streamed frames the advisory material has its own tags (frame.go's
// tag rule).

// oldStreamRequest is StreamRequest before Trace/Timing, as a client of
// that era gob-encoded it.
type oldStreamRequest struct {
	Role      string
	Query     engine.Query
	ChunkRows int
}

// roundTrip writes v with one codec and reads it back.
func roundTrip[T any](t *testing.T, c codec[T], in T) T {
	t.Helper()
	var buf bytes.Buffer
	if err := c.w(&buf, &in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var out T
	if err := c.r(&buf, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func TestStreamRequestTraceRoundTrip(t *testing.T) {
	for _, in := range []StreamRequest{
		{Role: "all", Query: engine.Query{Relation: "r", KeyLo: 5, KeyHi: 9}, ChunkRows: 64, Trace: "deadbeefdeadbeef", Timing: true},
		{Role: "all", Query: engine.Query{Relation: "r", KeyLo: 5, KeyHi: 9}, ChunkRows: 64},
	} {
		if out := roundTrip(t, StreamEP.req, in); !reflect.DeepEqual(out, in) {
			t.Fatalf("stream request round trip: %+v, want %+v", out, in)
		}
	}
}

// TestNewReaderAcceptsOldStreamRequest: a gob request from a client that
// predates the field codec and the trace fields still reads, with the
// trace fields zero.
func TestNewReaderAcceptsOldStreamRequest(t *testing.T) {
	var buf bytes.Buffer
	in := oldStreamRequest{Role: "all", Query: engine.Query{Relation: "r", KeyHi: 7}, ChunkRows: 32}
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var cur StreamRequest
	if err := StreamEP.req.r(&buf, &cur); err != nil {
		t.Fatal(err)
	}
	if cur.Role != "all" || cur.Query.KeyHi != 7 || cur.ChunkRows != 32 {
		t.Fatalf("new reader lost fields from old encoding: %+v", cur)
	}
	if cur.Trace != "" || cur.Timing {
		t.Fatalf("absent optional fields must decode to zero, got %+v", cur)
	}
}

func TestShardStreamRequestTraceRoundTrip(t *testing.T) {
	for _, in := range []ShardStreamRequest{
		{Role: "all", Query: engine.Query{Relation: "r"}, Shard: 2, Lo: 10, Hi: 20, First: true, ChunkRows: 16,
			RoutingEpoch: 3, Trace: "0123456789abcdef"},
		{Role: "all", Query: engine.Query{Relation: "r"}, Shard: 2, Lo: 10, Hi: 20, Last: true, RoutingEpoch: 3},
	} {
		if out := roundTrip(t, ShardStreamEP.req, in); !reflect.DeepEqual(out, in) {
			t.Fatalf("shard stream request round trip: %+v, want %+v", out, in)
		}
	}
}

func TestTimingTrailerFrameRoundTrip(t *testing.T) {
	in := &engine.Chunk{
		Type:  engine.ChunkTiming,
		Trace: "feedfacefeedface",
		Timing: []obs.StageDur{
			{Stage: obs.StageStreamTotal, NS: 123456},
			{Stage: obs.StageWireEncode, NS: 789},
		},
	}
	var buf bytes.Buffer
	if err := WriteChunkFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadChunkFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != engine.ChunkTiming || out.Trace != in.Trace || len(out.Timing) != 2 ||
		out.Timing[0] != in.Timing[0] || out.Timing[1] != in.Timing[1] {
		t.Fatalf("trailer round trip mismatch: %+v", out)
	}
	// The trailer has a tag of its own, and the tag is the format's only
	// version: a reader that predates a tag refuses the frame by name —
	// it never misreads one chunk type's fields as another's.
	buf.Reset()
	if err := WriteChunkFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	if frame[frameHeader] != tagChunk+byte(engine.ChunkTiming) {
		t.Fatalf("timing trailer opens with tag %#x", frame[frameHeader])
	}
	frame[frameHeader] = tagChunk + byte(engine.ChunkTiming) + 1
	if _, err := ReadChunkFrame(&buf); !errors.Is(err, errMalformed) {
		t.Fatalf("unknown chunk tag = %v, want errMalformed", err)
	}
}

// TestNodeFootTimingOptional: a foot's advisory Timing may be absent —
// it then decodes nil, and the seam material beside it is untouched.
func TestNodeFootTimingOptional(t *testing.T) {
	for _, in := range []NodeFoot{
		{Entries: 4},
		{Entries: 9, Timing: []obs.StageDur{{Stage: obs.StageVOAssemble, NS: 42}}},
	} {
		var buf bytes.Buffer
		if err := WriteNodeFrame(&buf, &NodeFrame{Foot: &in}); err != nil {
			t.Fatal(err)
		}
		out, err := ReadNodeFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*out.Foot, in) {
			t.Fatalf("foot round trip: %+v, want %+v", *out.Foot, in)
		}
	}
}
