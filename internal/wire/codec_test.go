package wire_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/verify"
	"vcqr/internal/wire"
	"vcqr/internal/workload"
)

// codecFixture is the tamper corpus's relation (internal/verify): 40
// employees with hidden rows and three roles, so every entry mode and
// every rewrite occurs — here also split three ways, so every node frame
// kind does.
type codecFixture struct {
	h     *hashx.Hasher
	sr    *core.SignedRelation
	set   *partition.Set
	pub   *engine.Publisher
	v     *verify.Verifier
	roles map[string]accessctl.Role
}

func newCodecFixture(t testing.TB) *codecFixture {
	t.Helper()
	h := hashx.New()
	rel, err := workload.Employees(workload.EmployeeConfig{
		N: 40, L: 0, U: 1 << 20, PhotoSize: 70, HiddenPct: 30, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewParams(0, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.Build(h, signKey(t), p, rel)
	if err != nil {
		t.Fatal(err)
	}
	set, err := partition.Split(sr, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sl := range set.Slices {
		if err := sl.BuildAggIndex(h, signKey(t).Public()); err != nil {
			t.Fatal(err)
		}
	}
	roles := map[string]accessctl.Role{
		"all":   {Name: "all"},
		"clerk": {Name: "clerk", VisibilityCol: "vis_clerk", Cols: []string{"Name", "Dept", "vis_clerk"}},
		"exec":  {Name: "exec", KeyHi: 1 << 19},
	}
	pub := engine.NewPublisher(h, signKey(t).Public(), accessctl.NewPolicy(roles["all"], roles["clerk"], roles["exec"]))
	if err := pub.AddRelation(sr, false); err != nil {
		t.Fatal(err)
	}
	return &codecFixture{h: h, sr: sr, set: set, pub: pub, roles: roles,
		v: verify.New(h, signKey(t).Public(), p, rel.Schema)}
}

// codecScenarios are the tamper corpus's eleven: all entry modes,
// projection, filters, DISTINCT, a mid-relation range, an empty range.
var codecScenarios = []struct {
	name, role string
	q          engine.Query
}{
	{"plain", "all", engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 1 << 19}},
	{"mid-range", "all", engine.Query{Relation: "Emp", KeyLo: 1 << 18, KeyHi: 1 << 19}},
	{"project", "all", engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 1 << 19, Project: []string{"Name", "Dept"}}},
	{"filter", "all", engine.Query{Relation: "Emp", KeyLo: 1, Filters: []engine.Filter{{Col: "Dept", Op: engine.OpLe, Val: relation.IntVal(2)}}}},
	{"filter-project", "all", engine.Query{Relation: "Emp", KeyLo: 1, Project: []string{"Dept", "ID"},
		Filters: []engine.Filter{{Col: "Dept", Op: engine.OpGt, Val: relation.IntVal(1)}, {Col: "ID", Op: engine.OpLt, Val: relation.IntVal(30)}}}},
	{"distinct", "all", engine.Query{Relation: "Emp", KeyLo: 1, Project: []string{"Dept"}, Distinct: true}},
	{"clerk", "clerk", engine.Query{Relation: "Emp", KeyLo: 1}},
	{"clerk-filter", "clerk", engine.Query{Relation: "Emp", KeyLo: 1, Project: []string{"Name", "Dept", "Photo"},
		Filters: []engine.Filter{{Col: "Dept", Op: engine.OpNe, Val: relation.IntVal(3)}}}},
	{"exec-clamped", "exec", engine.Query{Relation: "Emp", KeyLo: 1}},
	{"empty", "all", engine.Query{Relation: "Emp", KeyLo: 3, KeyHi: 3}},
	{"whole-domain", "all", engine.Query{Relation: "Emp"}},
}

func drain(t testing.TB, st engine.ResultStream) []*engine.Chunk {
	t.Helper()
	var out []*engine.Chunk
	for {
		c, err := st.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
}

// partials opens one ShardPartial per covering shard of a scenario — the
// node half of a distributed fan-out, run in-process.
func (f *codecFixture) partials(t testing.TB, role string, q engine.Query) (engine.Query, []*engine.ShardPartial, engine.PrevG) {
	t.Helper()
	eff, err := engine.EffectiveQuery(f.sr.Params, f.sr.Schema, f.roles[role], q)
	if err != nil {
		t.Fatal(err)
	}
	sub := f.set.Spec.Decompose(eff.KeyLo, eff.KeyHi)
	sps := make([]*engine.ShardPartial, len(sub))
	for i, s := range sub {
		sps[i], err = f.pub.ShardPartial(f.set.Slices[s.Shard], role, q, s.Shard, s.Lo, s.Hi,
			i == 0, i == len(sub)-1, engine.StreamOpts{ChunkRows: 5})
		if err != nil {
			t.Fatal(err)
		}
	}
	var prevG engine.PrevG
	if first := sub[0].Shard; first > 0 {
		prevG = func() (hashx.Digest, error) {
			prev := f.set.Slices[first-1]
			return prev.Recs[len(prev.Recs)-3].G, nil
		}
	}
	return eff, sps, prevG
}

// realChunks is every chunk the fixture's streams emit: each scenario
// unpartitioned, each non-DISTINCT one merged across the three shards
// (tagged chunks, footers with ShardFeet), an error and a timing chunk.
func (f *codecFixture) realChunks(t testing.TB) []*engine.Chunk {
	t.Helper()
	var out []*engine.Chunk
	for _, sc := range codecScenarios {
		st, err := f.pub.ExecuteStream(sc.role, sc.q, engine.StreamOpts{ChunkRows: 5})
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		out = append(out, drain(t, st)...)
		if sc.q.Distinct {
			continue
		}
		eff, sps, prevG := f.partials(t, sc.role, sc.q)
		feeds := make([]engine.ShardFeed, len(sps))
		for i, sp := range sps {
			feeds[i] = sp
		}
		merged, err := engine.MergeShards(signKey(t).Public(), true, eff, feeds, prevG)
		if err != nil {
			t.Fatalf("%s: merge: %v", sc.name, err)
		}
		out = append(out, drain(t, merged)...)
	}
	// An empty range whose predecessor is a record, not the delimiter:
	// the footer carries PredPrevG.
	gap := engine.Query{Relation: "Emp", KeyLo: f.sr.Recs[5].Key() + 1, KeyHi: f.sr.Recs[6].Key() - 1}
	st, err := f.pub.ExecuteStream("all", gap, engine.StreamOpts{})
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, drain(t, st)...)
	// Entry modes no publisher defines — format 0's elided duplicate
	// among them — ride on edited copies, as the tamper corpus makes them.
	for _, c := range out {
		if c.Type == engine.ChunkEntries && len(c.Entries) > 1 {
			edited := *c
			edited.Entries = append([]engine.VOEntry(nil), c.Entries...)
			edited.Entries[0].Mode = 3
			edited.Entries[1].Mode = 4
			out = append(out, &edited)
			break
		}
	}
	return append(out,
		&engine.Chunk{Type: engine.ChunkError, Seq: 3, Err: "engine: boom"},
		&engine.Chunk{Type: engine.ChunkTiming, Trace: "feedfacefeedface",
			Timing: []obs.StageDur{{Stage: obs.StageStreamTotal, NS: 123456}, {Stage: obs.StageWireEncode, NS: -1}}})
}

// sigListFrame is an honest entries chunk or footer with a counted list
// of signatures after its last field: the shape per-entry signatures
// took while those frames closed with a signature count. Record format 2
// dropped the count, so the list is trailing bytes.
type sigListFrame struct {
	name  string
	frame []byte
	node  bool // a node sub-stream frame, for ReadNodeFrame
}

// sigListFrames builds every shape that encoding took from the fixture's
// real streams: an entries chunk with one signature per entry and with
// one, a footer with one beside the condensed signature, an empty
// range's footer with its predecessor's, and the two entries chunks
// inside node sub-stream frames.
func (f *codecFixture) sigListFrames(tb testing.TB) []sigListFrame {
	tb.Helper()
	var entries, footer, empty *engine.Chunk
	for _, c := range f.realChunks(tb) {
		switch {
		case c.Type == engine.ChunkEntries && entries == nil && len(c.Entries) > 1:
			entries = c
		case c.Type == engine.ChunkFooter && footer == nil && c.ShardFeet[0].Entries > 0:
			footer = c
		case c.Type == engine.ChunkFooter && empty == nil && len(c.ShardFeet) == 1 && c.ShardFeet[0].Entries == 0:
			empty = c
		}
	}
	if entries == nil || footer == nil || empty == nil {
		tb.Fatal("the fixture streams no entries chunk, footer or empty-range footer")
	}
	perEntry := make([][]byte, len(entries.Entries))
	for i := range perEntry {
		perEntry[i] = f.sr.Recs[1+i].Sig
	}
	one := [][]byte{f.sr.Recs[1].Sig}
	withSigs := func(frame []byte, sigs [][]byte) []byte {
		payload := binary.AppendUvarint(bytes.Clone(frame[4:]), uint64(len(sigs)))
		for _, s := range sigs {
			payload = append(binary.AppendUvarint(payload, uint64(len(s))), s...)
		}
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	encode := func(write func(io.Writer) error) []byte {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	chunk := func(c *engine.Chunk) []byte {
		return encode(func(w io.Writer) error { return wire.WriteChunkFrame(w, c) })
	}
	node := encode(func(w io.Writer) error { return wire.WriteNodeFrame(w, &wire.NodeFrame{Chunk: entries}) })
	return []sigListFrame{
		{"entries chunk, a signature per entry", withSigs(chunk(entries), perEntry), false},
		{"entries chunk, one signature", withSigs(chunk(entries), one), false},
		{"footer, a signature beside the aggregate", withSigs(chunk(footer), [][]byte{footer.AggSig}), false},
		{"empty-range footer, the predecessor's signature", withSigs(chunk(empty), one), false},
		{"node entries chunk, a signature per entry", withSigs(node, perEntry), true},
		{"node entries chunk, one signature", withSigs(node, one), true},
	}
}

// TestSignatureListRefused: a VO carries no signature but the footer's
// condensed one, and no frame has a field for more, so every frame
// carrying a signature list after its fields is malformed — refused with
// ErrMalformed by the one-shot readers, by a recycling reader after an
// honest entries chunk it decodes into, and inside a node sub-stream.
func TestSignatureListRefused(t *testing.T) {
	f := newCodecFixture(t)
	var honest []byte // an entries chunk, so the next frame decodes into recycled memory
	for _, c := range f.realChunks(t) {
		if c.Type == engine.ChunkEntries {
			honest = frameOf(t, wire.WriteChunkFrame, c)
			break
		}
	}
	for _, sl := range f.sigListFrames(t) {
		stream := io.MultiReader(bytes.NewReader(honest), bytes.NewReader(sl.frame))
		rc := wire.NewRecycler(stream)
		if _, err := rc.Next(); err != nil {
			t.Fatal(err)
		}
		var oneShot, recycled error
		if sl.node {
			_, oneShot = wire.ReadNodeFrame(bytes.NewReader(sl.frame))
			_, recycled = rc.NextNode()
		} else {
			_, oneShot = wire.ReadChunkFrame(bytes.NewReader(sl.frame))
			_, recycled = rc.Next()
		}
		if !errors.Is(oneShot, wire.ErrMalformed) || !errors.Is(recycled, wire.ErrMalformed) {
			t.Errorf("%s: one-shot read %v, recycling read %v; want the malformed-frame error", sl.name, oneShot, recycled)
		}
	}
}

// realNodeFrames is every frame the fixture's sub-streams emit, built as
// the node's /shard/stream handler builds them: hellos of first, interior
// and last shards, chunks, feet with and without Right and PredSig, and
// an in-band error.
func (f *codecFixture) realNodeFrames(t testing.TB) []*wire.NodeFrame {
	t.Helper()
	var out []*wire.NodeFrame
	for _, sc := range codecScenarios {
		if sc.q.Distinct {
			continue
		}
		_, sps, _ := f.partials(t, sc.role, sc.q)
		for _, sp := range sps {
			head, err := sp.Head()
			if err != nil {
				t.Fatal(err)
			}
			sl := f.set.Slices[head.Shard]
			out = append(out, &wire.NodeFrame{Hello: &wire.NodeHello{Shard: head.Shard, Epoch: 7,
				Edges: partition.EdgesOf(sl), Left: head.Left, Digest: partition.SliceDigest(f.h, sl), NeedPrevG: sp.NeedPrevG()}})
			for _, c := range drain(t, sp) {
				out = append(out, &wire.NodeFrame{Chunk: c})
			}
			foot, err := sp.Foot()
			if err != nil {
				t.Fatal(err)
			}
			nf := &wire.NodeFoot{Entries: foot.Entries, Partial: foot.Partial, Right: foot.Right,
				PredSig: foot.PredSig, PredPrevG: foot.PredPrevG, NeedPrevG: foot.NeedPrevG}
			if head.Shard%2 == 0 {
				nf.Timing = []obs.StageDur{{Stage: obs.StageSubStream, NS: 99}, {Stage: obs.StageVOAssemble, NS: 42}}
			}
			out = append(out, &wire.NodeFrame{Foot: nf})
		}
	}
	return append(out, &wire.NodeFrame{Err: wire.NotHostingMsg + " 2"})
}

// viaGob is the reference the codec is held to: the value a gob round
// trip of v produces — what the unmodified verifiers saw before.
func viaGob[T any](t testing.TB, v *T) *T {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	out := new(T)
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkFrame runs the codec's per-frame properties for one value:
// decode(encode(v)) is the gob round trip of v; a second frame boundary
// is io.EOF; cutting the frame at every byte offset is ErrFrameTruncated
// and cutting the payload under an honest header, or appending one byte
// to it, is the malformed-frame error — never a panic, never more than
// the frame's own size allocated on the way to the refusal.
func checkFrame[T any](t *testing.T, name string, v *T, write func(io.Writer, *T) error, read func(io.Reader) (*T, error)) {
	t.Helper()
	frame := frameOf(t, write, v)
	got, err := read(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if want := viaGob(t, v); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: codec and gob disagree\n codec %+v\n gob   %+v", name, got, want)
	}
	if again := frameOf(t, write, got); !bytes.Equal(again, frame) {
		t.Fatalf("%s: re-encoding the decoded value changed the frame", name)
	}

	// Offsets: every one on small frames, a stride plus both ends on big
	// ones (the full sweep is quadratic in the frame).
	step := max(1, len(frame)/512)
	relen := func(payload []byte) []byte {
		out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		return append(out, payload...)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	refusals := 0
	for cut := 0; cut < len(frame); cut += step {
		_, err := read(bytes.NewReader(frame[:cut]))
		if want := error(wire.ErrFrameTruncated); cut == 0 {
			if err != io.EOF {
				t.Fatalf("%s: empty stream = %v, want io.EOF", name, err)
			}
		} else if !errors.Is(err, want) {
			t.Fatalf("%s: cut at %d = %v, want ErrFrameTruncated", name, cut, err)
		}
		if cut >= 4 {
			if _, err := read(bytes.NewReader(relen(frame[4:cut]))); !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("%s: payload cut at %d under an honest header = %v, want the malformed-frame error", name, cut, err)
			}
			refusals++
		}
		refusals++
	}
	if _, err := read(bytes.NewReader(relen(append(frame[4:len(frame):len(frame)], 0)))); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("%s: one trailing payload byte = %v, want the malformed-frame error", name, err)
	}
	runtime.ReadMemStats(&after)
	// A refusal may cost the payload buffer, a decoded prefix a few times
	// its size, and the error values; 16 frames' worth each is generous
	// and still far below what an unchecked count would reserve.
	if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(refusals+1)*uint64(16*len(frame)+4096); grew > bound {
		t.Fatalf("%s: %d refusals allocated %d bytes (bound %d)", name, refusals, grew, bound)
	}
}

// TestCodecMatchesGob is the differential: over every chunk and node
// frame the fixture's real streams emit, and over one populated value of
// every request and reply body, transfer frame and heartbeat, the
// hand-written codec decodes field for field what gob decoded —
// nil-vs-empty included — so the unmodified verifiers and every handler
// see the values they always saw.
func TestCodecMatchesGob(t *testing.T) {
	f := newCodecFixture(t)
	chunks := f.realChunks(t)
	modes, types := map[engine.EntryMode]bool{}, map[engine.ChunkType]bool{}
	var feet, predPrev bool
	for _, c := range chunks {
		checkFrame(t, "chunk "+c.Type.String(), c, wire.WriteChunkFrame, wire.ReadChunkFrame)
		types[c.Type] = true
		for _, e := range c.Entries {
			modes[e.Mode] = true
		}
		feet = feet || len(c.ShardFeet) > 1
		predPrev = predPrev || len(c.PredPrevG) > 0
	}
	if len(modes) != 5 || len(types) != 5 || !feet || !predPrev {
		t.Fatalf("fixture lost coverage: modes %v types %v feet %v predPrevG %v", modes, types, feet, predPrev)
	}
	var hello [3]bool
	var footRight, footBare, footPred, nodeErr bool
	for _, nf := range f.realNodeFrames(t) {
		switch {
		case nf.Hello != nil:
			hello[nf.Hello.Shard] = true
			checkFrame(t, "node hello", nf, wire.WriteNodeFrame, wire.ReadNodeFrame)
		case nf.Chunk != nil:
			checkFrame(t, "node chunk", nf, wire.WriteNodeFrame, wire.ReadNodeFrame)
		case nf.Foot != nil:
			footRight = footRight || nf.Foot.Right != nil
			footBare = footBare || (nf.Foot.Right == nil && nf.Foot.PredSig == nil)
			footPred = footPred || nf.Foot.PredSig != nil
			checkFrame(t, "node foot", nf, wire.WriteNodeFrame, wire.ReadNodeFrame)
		default:
			nodeErr = true
			checkFrame(t, "node error", nf, wire.WriteNodeFrame, wire.ReadNodeFrame)
		}
	}
	if hello != [3]bool{true, true, true} || !footRight || !footBare || !footPred || !nodeErr {
		t.Fatalf("fixture lost node-frame coverage: hello %v right %v bare %v pred %v err %v", hello, footRight, footBare, footPred, nodeErr)
	}

	// One row per request and reply body, populated from the fixture.
	sc := codecScenarios[4] // filters and a projection
	checkFrame(t, "stream request", &wire.StreamRequest{Role: sc.role, Query: sc.q, ChunkRows: 5, Trace: "feedface", Timing: true},
		wire.StreamRequestBody.Write, wire.StreamRequestBody.Read)
	checkFrame(t, "shard stream request", &wire.ShardStreamRequest{Role: "clerk", Query: codecScenarios[7].q, Shard: 1,
		Lo: 3, Hi: 1 << 19, Last: true, ChunkRows: 8, RoutingEpoch: 4, Trace: "cafe"},
		wire.ShardStreamRequestBody.Write, wire.ShardStreamRequestBody.Read)
	checkFrame(t, "shard ref", &wire.ShardRef{Relation: "Emp", Shard: 2}, wire.ShardRefBody.Write, wire.ShardRefBody.Read)
	d := f.delta()
	checkFrame(t, "delta", &d, wire.DeltaBody.Write, wire.DeltaBody.Read)
	checkFrame(t, "node delta request", &wire.NodeDeltaRequest{Delta: d}, wire.NodeDeltaRequestBody.Write, wire.NodeDeltaRequestBody.Read)
	checkFrame(t, "node delta request with neighbours", &wire.NodeDeltaRequest{Delta: d, Neighbours: []int{0, 2, 300}},
		wire.NodeDeltaRequestBody.Write, wire.NodeDeltaRequestBody.Read)
	checkFrame(t, "mirror request", &wire.MirrorRequest{Token: 9, Relation: "Emp", Shard: 1, Left: true, Rec: *f.sr.Recs[7]},
		wire.MirrorRequestBody.Write, wire.MirrorRequestBody.Read)
	checkFrame(t, "tx request", &wire.TxRequest{Relation: "Emp", Token: 9, Commit: true}, wire.TxRequestBody.Write, wire.TxRequestBody.Read)
	checkFrame(t, "hosted request", &struct{}{}, wire.HostedRequestBody.Write, wire.HostedRequestBody.Read)
	checkFrame(t, "lease request", &wire.LeaseRequest{Coordinator: "coord-a", Epoch: 7, TTLMillis: -1500, Seq: 42},
		wire.WriteLeaseRequest, wire.ReadLeaseRequest)

	edges := func(i int) partition.Edges { return partition.EdgesOf(f.set.Slices[i]) }
	dg := func(i int) hashx.Digest { return partition.SliceDigest(f.h, f.set.Slices[i]) }
	checkFrame(t, "delta response", &wire.DeltaResponse{Epoch: 12, Err: "delta: malformed operation"},
		wire.DeltaResponseBody.Write, wire.DeltaResponseBody.Read)
	checkFrame(t, "edge response", &wire.EdgeResponse{Epoch: 3, Edges: edges(1)}, wire.EdgeResponseBody.Write, wire.EdgeResponseBody.Read)
	checkFrame(t, "digest response", &wire.DigestResponse{Epoch: 3, Digest: dg(0), InstallDigest: dg(1), Records: 17, Deltas: 2},
		wire.DigestResponseBody.Write, wire.DigestResponseBody.Read)
	checkFrame(t, "hosted response", &wire.HostedResponse{Relations: map[string]wire.HostedInfo{
		"Emp": {Spec: f.set.Spec, Shards: []wire.HostedShard{
			{Shard: 0, Epoch: 3, Digest: dg(0), InstallDigest: dg(0), Records: 17},
			{Shard: 2, Epoch: 5, Digest: dg(2), InstallDigest: dg(1), Records: 16, Deltas: 4}}},
		"Aux": {Spec: partition.Spec{Relation: "Aux", Cuts: []uint64{0, 1 << 20}, Version: 1}},
	}}, wire.HostedResponseBody.Write, wire.HostedResponseBody.Read)
	checkFrame(t, "ok response", &wire.OKResponse{Epoch: 8, Err: wire.NotHostingMsg + " 2"}, wire.OKResponseBody.Write, wire.OKResponseBody.Read)
	checkFrame(t, "node delta response", &wire.NodeDeltaResponse{Token: 9, Modified: []wire.ModifiedShard{
		{Shard: 0, Edges: edges(0)}, {Shard: 1, Edges: edges(1)}}},
		wire.NodeDeltaResponseBody.Write, wire.NodeDeltaResponseBody.Read)
	checkFrame(t, "node delta response with neighbours", &wire.NodeDeltaResponse{Token: 9,
		Modified:   []wire.ModifiedShard{{Shard: 1, Edges: edges(1)}},
		Neighbours: []wire.ModifiedShard{{Shard: 0, Edges: edges(0)}, {Shard: 2, Edges: edges(2)}}},
		wire.NodeDeltaResponseBody.Write, wire.NodeDeltaResponseBody.Read)
	checkFrame(t, "node hello announcing an empty-range predecessor", &wire.NodeFrame{Hello: &wire.NodeHello{Shard: 2, Epoch: 7,
		Edges: edges(2), Digest: dg(2), NeedPrevG: true}}, wire.WriteNodeFrame, wire.ReadNodeFrame)
	checkFrame(t, "mirror response", &wire.MirrorResponse{Token: 9, Edges: edges(2)}, wire.MirrorResponseBody.Write, wire.MirrorResponseBody.Read)
	checkFrame(t, "lease response", &wire.LeaseResponse{Epoch: 7, Hosted: 2, Inflight: 5, Err: "late"},
		wire.WriteLeaseResponse, wire.ReadLeaseResponse)

	// A whole slice through the transfer stream, then every frame of it.
	sl := f.set.Slices[1]
	man := wire.ShardManifest{Spec: f.set.Spec, Shard: 1, Epoch: 3, Deltas: 2}
	var transfer bytes.Buffer
	if err := wire.WriteShardTransfer(&transfer, f.h, man, sl); err != nil {
		t.Fatal(err)
	}
	gotMan, got, err := wire.ReadShardTransfer(bytes.NewReader(transfer.Bytes()), f.h)
	if err != nil {
		t.Fatal(err)
	}
	man.Params, man.Schema, man.Records = sl.Params, sl.Schema, len(sl.Recs)
	if !reflect.DeepEqual(gotMan, *viaGob(t, &man)) || !reflect.DeepEqual(got, viaGob(t, sl)) {
		t.Fatal("shard transfer: codec and gob disagree")
	}
	for _, frame := range splitFrames(t, transfer.Bytes()) {
		tf, err := wire.TransferFrameBody.Read(bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		checkFrame(t, "transfer frame", tf, wire.TransferFrameBody.Write, wire.TransferFrameBody.Read)
	}
	checkFrame(t, "transfer error", &wire.TransferFrame{Err: "boom"}, wire.TransferFrameBody.Write, wire.TransferFrameBody.Read)
}

// delta is a 3-op batch of fixture records: an upsert, a delete (whose
// record is the zero record) and another upsert.
func (f *codecFixture) delta() delta.Delta {
	up := func(r *core.SignedRecord) delta.Op {
		return delta.Op{Kind: delta.OpUpsert, Key: r.Key(), RowID: r.Tuple.RowID, Rec: *r}
	}
	gone := f.sr.Recs[9]
	return delta.Delta{Relation: "Emp", Ops: []delta.Op{
		up(f.sr.Recs[8]),
		{Kind: delta.OpDelete, Key: gone.Key(), RowID: gone.Tuple.RowID},
		up(f.sr.Recs[10]),
	}}
}

// TestDecodedFramesDoNotShareMemory pins the ownership rule: a decoded
// frame owns its one buffer. Two decodes of the same bytes share nothing
// with the source or with each other, so scribbling over the source and
// over frame A leaves frame B — and a verifier run on B — unaffected.
func TestDecodedFramesDoNotShareMemory(t *testing.T) {
	f := newCodecFixture(t)
	sc := codecScenarios[0]
	st, err := f.pub.ExecuteStream(sc.role, sc.q, engine.StreamOpts{ChunkRows: 5})
	if err != nil {
		t.Fatal(err)
	}
	var src bytes.Buffer
	if err := wire.WriteStream(&src, st); err != nil {
		t.Fatal(err)
	}
	decodeAll := func() []*engine.Chunk {
		var out []*engine.Chunk
		r := bytes.NewReader(src.Bytes())
		for {
			c, err := wire.ReadChunkFrame(r)
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, c)
		}
	}
	a, b := decodeAll(), decodeAll()
	want := viaGobAll(t, b)

	scribble := func(p []byte) {
		for i := range p {
			p[i] ^= 0xA5
		}
	}
	scribble(src.Bytes())
	for _, c := range a {
		for i := range c.Entries {
			e := &c.Entries[i]
			for _, d := range e.Disclosed {
				scribble(d.Val.Bytes)
			}
			for _, l := range e.HiddenLeaves {
				scribble(l)
			}
			scribble(e.Combined)
		}
		for _, d := range c.Left.Chain.Intermediates {
			scribble(d)
		}
		scribble(c.Right.AttrRoot)
		scribble(c.AggSig)
	}
	if !reflect.DeepEqual(b, want) {
		t.Fatal("scribbling over the source and over frame A changed frame B")
	}
	sv := f.v.NewStreamVerifier(sc.q, f.roles[sc.role])
	rows := 0
	for i, c := range b {
		released, err := sv.Consume(c)
		if err != nil {
			t.Fatalf("verifier on frame B refused chunk %d: %v", i, err)
		}
		rows += len(released)
	}
	if err := sv.Finish(); err != nil || rows == 0 {
		t.Fatalf("verifier on frame B: %d rows, %v", rows, err)
	}
}

func viaGobAll(t testing.TB, cs []*engine.Chunk) []*engine.Chunk {
	out := make([]*engine.Chunk, len(cs))
	for i, c := range cs {
		out[i] = viaGob(t, c)
	}
	return out
}
