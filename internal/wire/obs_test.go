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

// These tests pin the wire-compatibility claim of the tracing fields.
// On requests they are *optional* gob struct fields, so a peer built
// before them decodes the new encodings unchanged (gob drops fields the
// receiver lacks) and a new peer decodes old encodings with the fields
// zero; the "old" shapes below are literal copies of the structs as they
// existed before the trace fields landed. On streamed frames, which are
// not gob, the tag rule of frame.go applies instead.

// oldStreamRequest is StreamRequest before Trace/Timing.
type oldStreamRequest struct {
	Role      string
	Query     engine.Query
	ChunkRows int
}

// oldShardStreamRequest is ShardStreamRequest before Trace.
type oldShardStreamRequest struct {
	Role         string
	Query        engine.Query
	Shard        int
	Lo, Hi       uint64
	First, Last  bool
	ChunkRows    int
	RoutingEpoch uint64
}

func gobRoundTrip(t *testing.T, in, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func TestOldReaderSkipsStreamRequestTrace(t *testing.T) {
	in := StreamRequest{
		Role: "all", Query: engine.Query{Relation: "r", KeyLo: 5, KeyHi: 9},
		ChunkRows: 64, Trace: "deadbeefdeadbeef", Timing: true,
	}
	var old oldStreamRequest
	gobRoundTrip(t, in, &old)
	if old.Role != "all" || old.Query.Relation != "r" || old.Query.KeyLo != 5 || old.ChunkRows != 64 {
		t.Fatalf("old reader lost pre-existing fields: %+v", old)
	}
}

func TestNewReaderAcceptsOldStreamRequest(t *testing.T) {
	in := oldStreamRequest{Role: "all", Query: engine.Query{Relation: "r", KeyHi: 7}, ChunkRows: 32}
	var cur StreamRequest
	gobRoundTrip(t, in, &cur)
	if cur.Role != "all" || cur.Query.KeyHi != 7 || cur.ChunkRows != 32 {
		t.Fatalf("new reader lost fields from old encoding: %+v", cur)
	}
	if cur.Trace != "" || cur.Timing {
		t.Fatalf("absent optional fields must decode to zero, got %+v", cur)
	}
}

func TestOldReaderSkipsShardStreamRequestTrace(t *testing.T) {
	in := ShardStreamRequest{
		Role: "all", Query: engine.Query{Relation: "r"},
		Shard: 2, Lo: 10, Hi: 20, First: true, ChunkRows: 16,
		RoutingEpoch: 3, Trace: "0123456789abcdef",
	}
	var old oldShardStreamRequest
	gobRoundTrip(t, in, &old)
	if old.Shard != 2 || old.Lo != 10 || old.Hi != 20 || !old.First || old.RoutingEpoch != 3 {
		t.Fatalf("old reader lost pre-existing fields: %+v", old)
	}
	var cur ShardStreamRequest
	gobRoundTrip(t, old, &cur)
	if cur.Trace != "" {
		t.Fatalf("absent Trace must decode empty, got %q", cur.Trace)
	}
	if cur.Shard != 2 || cur.RoutingEpoch != 3 {
		t.Fatalf("new reader lost fields: %+v", cur)
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
