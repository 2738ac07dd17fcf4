package verify_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/verify"
	"vcqr/internal/wire"
)

// FuzzStreamSound states "a verified answer or a named refusal, never a
// wrong answer" as a property: whatever stream an untrusted publisher,
// node, coordinator or cache peer sends, the verifier either refuses it
// or releases exactly the rows soundOracle — a scan of the owner's
// tuples sharing no code with engine or verify — holds for the user's
// query and role. Fan-out streams run through ShardStreamVerifier too.
//
// query picks the scenario (soundScenario). corpus names a tamper-corpus
// edit (tamper_test.go), applied to the materialized result; the seeds
// are every edit the corpus makes, on analogues of its scenarios; the
// edits record format 2 calls for on each scenario, whole and fanned out
// over 2 and 4 shards (a row's C taken from another row, a boundary's
// OtherCombined swapped with the side its chain proves); and each
// scenario unedited. edits is a list of four-byte field-level edits on
// the decoded chunks, raw byte flips on the encoded frames among them
// (the edit* ops below).
func FuzzStreamSound(f *testing.F) {
	fx := newSoundFix(f)
	seeded := map[string]bool{}
	for _, sc := range soundCorpusScenarios {
		if !reflect.DeepEqual(soundQuery(sc.bytes()), sc) {
			f.Fatalf("scenario %+v does not survive its encoding", sc)
		}
		res, err := fx.pub.Execute(sc.role, sc.q)
		if err != nil {
			f.Fatal(err)
		}
		for _, name := range corpusEditNames(res, sc.chunkRows) {
			f.Add(sc.bytes(), name, []byte(nil))
			seeded[soundKind(name)] = true
		}
	}
	for name := range readCorpus(f) {
		if _, edit, _ := strings.Cut(name, "/"); edit != "honest" && !seeded[soundKind(edit)] {
			f.Fatalf("tamper corpus edit %q has no seed", name)
		}
	}
	for _, sc := range soundCorpusScenarios {
		for _, k := range []int{1, 2, 4} { // whole, and merged from shard partials
			sc.k = k
			for x := byte(0); x < 3; x++ {
				f.Add(sc.bytes(), "", []byte{editOtherC, x, 0, 5 + x})
				f.Add(sc.bytes(), "", []byte{editOtherC, x, 1, x})
			}
			f.Add(sc.bytes(), "", []byte{editSwapOther, 0, 0, 0})
			f.Add(sc.bytes(), "", []byte{editSwapOther, 0, 1, 0})
		}
	}
	f.Add(soundCorpusScenarios[0].bytes(), "", []byte{6, 3, 0, 0, 7, 4, 1, 0, 13, 0, 1, 0, 13, 1, 0, 0, 14, 2, 5, 0, 11, 1, 0, 9})
	f.Add([]byte{0x12, 5, 30, 2, 0, 5}, "", []byte{2, 1, 9, 0, 5, 1, 2, 0, 9, 2, 1, 0, 12, 1, 0, 1, 15, 2, 40, 3})
	f.Add([]byte{0x0d, 0, 0, 0, 0, 3}, "", []byte{10, 4, 7, 9, 14, 5, 11, 0, 8, 1, 2, 0})
	// The three lies an earlier verifier accepted: a tightened filter, a
	// distinct row dropped as a duplicate, a hidden row served to a role
	// that may not see it.
	f.Add([]byte{0x00, 0, 0, 3, 0, 6}, "", []byte{editServe, 0, 0, 1})
	f.Add([]byte{0x28, 0, 0, 0, 0, 6}, "", []byte{editMode, 1, 3, 0})
	f.Add([]byte{0x21, 0, 0, 0, 0, 6}, "", []byte{editServe, 0, 3, 0})
	// Every corpus scenario unedited: the seeds hold the honest stream to
	// verifying, so a verifier that refuses too much fails without fuzzing.
	for _, sc := range soundCorpusScenarios {
		f.Add(sc.bytes(), "", []byte(nil))
	}

	f.Fuzz(func(t *testing.T, query []byte, corpus string, edits []byte) {
		sc := soundQuery(query)
		user, userRole := sc.q, sc.role
		var chunks []*engine.Chunk
		if corpus != "" {
			var ok bool
			if chunks, user, userRole, ok = fx.corpusEdit(sc, corpus); !ok {
				return
			}
		} else if chunks = fx.stream(t, sc, fx.sr); chunks == nil {
			return // the publisher refuses the query: nothing to verify
		}
		frames, ok := fx.edit(t, sc, private(t, chunks), edits)
		if !ok {
			return // an edit the transport cannot carry breaks the stream at the writer
		}
		want := soundOracle(fx.master, userRole, user)
		verifiers := []verify.ChunkVerifier{fx.v.NewStreamVerifier(user, soundRoles[userRole])}
		if sc.k > 1 {
			if sv, err := fx.v.NewShardStreamVerifier(fx.sets[sc.k].Spec, user, soundRoles[userRole]); err == nil {
				verifiers = append(verifiers, sv)
			}
		}
		// An unedited stream verifies — unless a filter's column is not
		// projected, which the verifier cannot evaluate on a result row.
		honest := corpus == "" && len(edits) < 4 &&
			(user.Filters == nil || user.Project == nil || slices.Contains(user.Project, "A"))
		for _, v := range verifiers {
			got, err := consume(v, frames)
			if err != nil && honest {
				t.Fatalf("%T refused the honest stream for %s %+v: %v", v, userRole, user, err)
			}
			if err != nil {
				continue
			}
			if !slices.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Fatalf("%T accepted %d rows for %s %+v, the owner's relation holds %d; first difference at row %d",
					v, len(got), userRole, user, len(want), i)
			}
		}
	})
}

// TestChainDigestEditsRefused: record format 2's two edits change the
// stream and are refused on every corpus scenario they apply to — a row's
// chain digest C taken from another record or from the next row of the
// stream, and a record boundary's OtherCombined swapped with the combined
// digest of the side its chain proves.
func TestChainDigestEditsRefused(t *testing.T) {
	fx := newSoundFix(t)
	applied := map[string]int{}
	for _, sc := range soundCorpusScenarios {
		honest := fx.stream(t, sc, fx.sr)
		if honest == nil {
			continue
		}
		plain, _ := fx.edit(t, sc, private(t, honest), nil)
		for name, ed := range map[string][]byte{
			"C from a record":     {editOtherC, 0, 0, 7},
			"C from the next row": {editOtherC, 0, 1, 0},
			"left OtherCombined":  {editSwapOther, 0, 0, 0},
			"right OtherCombined": {editSwapOther, 0, 1, 0},
		} {
			frames, ok := fx.edit(t, sc, private(t, honest), ed)
			if !ok || slices.EqualFunc(frames, plain, bytes.Equal) {
				continue // no entry, a delimiter boundary, or a row whose neighbour shares its key
			}
			applied[name]++
			if _, err := consume(fx.v.NewStreamVerifier(sc.q, soundRoles[sc.role]), frames); err == nil {
				t.Errorf("%s on %s %+v: accepted", name, sc.role, sc.q)
			}
		}
	}
	for _, name := range []string{"C from a record", "C from the next row", "left OtherCombined", "right OtherCombined"} {
		if applied[name] == 0 {
			t.Errorf("%s changed no corpus scenario's stream", name)
		}
	}
}

// soundOracle is the answer the owner's relation holds for a query and
// role: a scan of the master tuples in key order, rendered as renderRows
// renders verified rows. It knows the fixture's schema (A, B, vis) and
// its two roles, and shares no code with engine or verify.
func soundOracle(master []relation.Tuple, role string, q engine.Query) []string {
	lo, hi := max(q.KeyLo, 1), q.KeyHi
	if hi == 0 || hi >= soundU {
		hi = soundU - 1
	}
	cols := []int{0, 1, 2}
	if q.Project != nil {
		cols = slices.DeleteFunc(cols, func(c int) bool { return !slices.Contains(q.Project, []string{"A", "B", "vis"}[c]) })
	}
	if role == "viewer" { // may not see B, and always sees vis
		cols = append(slices.DeleteFunc(cols, func(c int) bool { return c >= 1 }), 2)
	}
	seen := map[string]bool{}
	var out []string
	for _, t := range master {
		visible := role != "viewer" || t.Attrs[2].Bool
		passes := len(q.Filters) == 0 || t.Attrs[0].Int <= q.Filters[0].Val.Int
		if t.Key < lo || t.Key > hi || !visible || !passes {
			continue
		}
		row := fmt.Sprint(t.Key)
		for _, c := range cols {
			row += fmt.Sprintf("|%d=%x", c, t.Attrs[c].Encode())
		}
		if !q.Distinct || !seen[row] {
			seen[row] = true
			out = append(out, row)
		}
	}
	return out
}

// renderRows renders verified rows for comparison with soundOracle.
func renderRows(rows []engine.Row) []string {
	var out []string
	for _, r := range rows {
		row := fmt.Sprint(r.Key)
		for _, d := range r.Values {
			row += fmt.Sprintf("|%d=%x", d.Col, d.Val.Encode())
		}
		out = append(out, row)
	}
	return out
}

// consume feeds decoded frames to a verifier: the released rows,
// rendered as each Consume returns them (they are valid until the next),
// or the first refusal.
func consume(v verify.ChunkVerifier, frames [][]byte) ([]string, error) {
	var rows []string
	for _, fr := range frames {
		c, err := wire.ReadChunkFrame(bytes.NewReader(fr))
		if err != nil {
			return nil, err
		}
		released, err := v.Consume(c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, renderRows(released)...)
	}
	return rows, v.Finish()
}

// soundU is the fixture's key domain, (0, 2^20) as in the tamper corpus.
const soundU = 1 << 20

var soundRoles = map[string]accessctl.Role{
	"all":    {Name: "all"},
	"viewer": {Name: "viewer", Cols: []string{"A", "vis"}, VisibilityCol: "vis"},
}

// soundFix is one signed relation of 64 rows over 40 keys — duplicates
// everywhere — served whole and as 2 and 4 shards, plus the same
// relation one row earlier at the previous publication version: the
// epoch a stale replica would splice in.
type soundFix struct {
	h       *hashx.Hasher
	master  []relation.Tuple
	sr      *core.SignedRelation
	sets    map[int]*partition.Set
	pub     *engine.Publisher
	stale   *engine.Publisher
	v       *verify.Verifier
	staleSR *core.SignedRelation
	keys    []uint64       // every record's key, in order
	digests []hashx.Digest // every digest a record carries
	policy  accessctl.Policy
}

func newSoundFix(tb testing.TB) *soundFix {
	tb.Helper()
	h := hashx.New()
	schema := relation.Schema{Name: "S", KeyName: "K", Cols: []relation.Column{
		{Name: "A", Type: relation.TypeInt}, {Name: "B", Type: relation.TypeString}, {Name: "vis", Type: relation.TypeBool},
	}}
	rel, err := relation.New(schema, 0, soundU)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 64; i++ {
		if _, err := rel.Insert(relation.Tuple{Key: 1000 * uint64(1+rng.Intn(40)), Attrs: []relation.Value{
			relation.IntVal(int64(rng.Intn(4))), relation.StringVal(fmt.Sprintf("b%d", rng.Intn(2))), relation.BoolVal(rng.Intn(3) > 0),
		}}); err != nil {
			tb.Fatal(err)
		}
	}
	stale, err := relation.New(schema, 0, soundU)
	if err != nil {
		tb.Fatal(err)
	}
	for i, t := range rel.Tuples {
		t = t.Clone()
		if i == len(rel.Tuples)/2 {
			t.Attrs[0] = relation.IntVal(9)
		}
		if _, err := stale.Insert(t); err != nil {
			tb.Fatal(err)
		}
	}
	p, err := core.NewParams(0, soundU, 2)
	if err != nil {
		tb.Fatal(err)
	}
	p.Version = 2
	sr, err := core.Build(h, signKey(tb), p, rel)
	if err != nil {
		tb.Fatal(err)
	}
	p.Version = 1
	staleSR, err := core.Build(h, signKey(tb), p, stale)
	if err != nil {
		tb.Fatal(err)
	}
	fx := &soundFix{h: h, master: rel.Tuples, sr: sr, staleSR: staleSR, sets: map[int]*partition.Set{},
		policy: accessctl.NewPolicy(soundRoles["all"], soundRoles["viewer"]),
		v:      verify.New(h, signKey(tb).Public(), sr.Params, schema)}
	for _, k := range []int{2, 4} {
		if fx.sets[k], err = partition.Split(sr, k); err != nil {
			tb.Fatal(err)
		}
		for _, sl := range fx.sets[k].Slices {
			if err := sl.BuildAggIndex(h, signKey(tb).Public()); err != nil {
				tb.Fatal(err)
			}
		}
	}
	fx.pub = fx.newPublisher(tb, sr)
	fx.stale = fx.newPublisher(tb, staleSR)
	for _, rec := range sr.Recs {
		fx.keys = append(fx.keys, rec.Key())
		fx.digests = append(fx.digests, rec.UpCombined, rec.DownCombined, rec.Combined, rec.AttrRoot, rec.G, core.KeyLeaf(h, rec.Key()))
		if rec.Kind == core.KindRecord {
			fx.digests = append(fx.digests, core.AttrLeaves(h, rec.Tuple)...)
		}
	}
	return fx
}

func (fx *soundFix) newPublisher(tb testing.TB, sr *core.SignedRelation) *engine.Publisher {
	p := engine.NewPublisher(fx.h, signKey(tb).Public(), fx.policy)
	if err := p.AddRelation(sr, false); err != nil {
		tb.Fatal(err)
	}
	return p
}

// soundScenario is what the user asks and how the publisher serves it.
type soundScenario struct {
	role      string
	q         engine.Query
	k         int // shards: 1 is the unpartitioned stream
	chunkRows int
}

// soundQuery decodes a scenario: byte 0 packs role (bit 0), shard count
// (bits 1-2), DISTINCT (bit 3) and projection (bits 5-6); bytes 1 and 2
// the range (soundBound); byte 3 an optional filter A <= 0..2; byte 5 the
// chunk size. Missing bytes read as zero.
func soundQuery(b []byte) soundScenario {
	b = append(b[:len(b):len(b)], make([]byte, 6)...)
	sc := soundScenario{role: "all", k: []int{1, 2, 4, 1}[b[0]>>1&3], chunkRows: 1 + int(b[5]%12)}
	if b[0]&1 == 1 {
		sc.role = "viewer"
	}
	sc.q = engine.Query{Relation: "S", KeyLo: soundBound(b[1]), KeyHi: soundBound(b[2]), Distinct: b[0]>>3&1 == 1,
		Project: [][]string{nil, {"A"}, {"B"}, {"B", "A"}}[b[0]>>5&3]}
	if b[3]%4 != 0 {
		sc.q.Filters = []engine.Filter{{Col: "A", Op: engine.OpLe, Val: relation.IntVal(int64(b[3]%4 - 1))}}
	}
	return sc
}

// soundBound maps a byte onto the fixture's keys: 0 is unbounded, any
// other byte a multiple of 1000 less one, exact, or plus one.
func soundBound(b byte) uint64 {
	if b == 0 {
		return 0
	}
	return 1000*uint64(1+b%43) + uint64(b/43%3) - 1
}

// bytes encodes the scenario back into soundQuery's layout.
func (sc soundScenario) bytes() []byte {
	b := make([]byte, 6)
	if sc.role == "viewer" {
		b[0] |= 1
	}
	b[0] |= byte(map[int]int{1: 0, 2: 1, 4: 2}[sc.k]) << 1
	if sc.q.Distinct {
		b[0] |= 1 << 3
	}
	for i, p := range [][]string{nil, {"A"}, {"B"}, {"B", "A"}} {
		if slices.Equal(p, sc.q.Project) && (p == nil) == (sc.q.Project == nil) {
			b[0] |= byte(i) << 5
		}
	}
	for i, bound := range []uint64{sc.q.KeyLo, sc.q.KeyHi} {
		for c := 1; c < 256; c++ {
			if bound != 0 && soundBound(byte(c)) == bound {
				b[1+i] = byte(c)
				break
			}
		}
	}
	if len(sc.q.Filters) > 0 {
		b[3] = byte(sc.q.Filters[0].Val.Int + 1)
	}
	b[5] = byte(sc.chunkRows - 1)
	return b
}

// soundCorpusScenarios are the tamper corpus's scenarios (tamper_test.go)
// on this fixture: every entry mode, projections, filters, DISTINCT, a
// hidden-row role, a mid-relation range, empty ranges and the whole
// domain. The empty range 3001..3001 also runs at K = 2, so its seeds
// face the shard verifier too and its unedited stream is a fan-out.
var soundCorpusScenarios = []soundScenario{
	{role: "all", q: engine.Query{Relation: "S", KeyLo: 1000, KeyHi: 19999}, k: 1, chunkRows: 7},
	{role: "all", q: engine.Query{Relation: "S", KeyLo: 9000, KeyHi: 20000}, k: 1, chunkRows: 7},
	{role: "all", q: engine.Query{Relation: "S", KeyLo: 1000, KeyHi: 19999, Project: []string{"A"}}, k: 1, chunkRows: 7},
	{role: "all", q: engine.Query{Relation: "S", KeyLo: 1000, Filters: []engine.Filter{{Col: "A", Op: engine.OpLe, Val: relation.IntVal(1)}}}, k: 1, chunkRows: 7},
	{role: "all", q: engine.Query{Relation: "S", KeyLo: 1001, Project: []string{"B", "A"},
		Filters: []engine.Filter{{Col: "A", Op: engine.OpLe, Val: relation.IntVal(0)}}}, k: 1, chunkRows: 7},
	{role: "all", q: engine.Query{Relation: "S", KeyLo: 1000, Project: []string{"A"}, Distinct: true}, k: 1, chunkRows: 7},
	{role: "viewer", q: engine.Query{Relation: "S", KeyLo: 1000}, k: 1, chunkRows: 7},
	{role: "viewer", q: engine.Query{Relation: "S", KeyLo: 1000, Project: []string{"B", "A"},
		Filters: []engine.Filter{{Col: "A", Op: engine.OpLe, Val: relation.IntVal(2)}}}, k: 1, chunkRows: 7},
	{role: "all", q: engine.Query{Relation: "S", KeyLo: 21001, KeyHi: 32999}, k: 1, chunkRows: 7},
	{role: "all", q: engine.Query{Relation: "S", KeyLo: 3001, KeyHi: 3001}, k: 1, chunkRows: 7},
	{role: "all", q: engine.Query{Relation: "S", KeyLo: 3001, KeyHi: 3001}, k: 2, chunkRows: 7},
	{role: "all", q: engine.Query{Relation: "S"}, k: 1, chunkRows: 7},
}

// corpusEditNames lists every edit the tamper corpus makes of a result.
func corpusEditNames(res *engine.Result, chunkRows int) []string {
	names := []string{"user/other-range", "user/other-role"}
	for _, m := range resultMutations(res) {
		names = append(names, m.name)
	}
	for _, m := range chunkMutations(len(engine.ChunkResult(res, chunkRows))) {
		names = append(names, m.name)
	}
	return names
}

var (
	entryIndex = regexp.MustCompile(`entry\d+/`)
	digitIndex = regexp.MustCompile(`(inter|disclosed)/\d+/`)
)

// soundKind is a corpus edit's name with its entry and digit positions
// dropped, which differ between fixtures.
func soundKind(name string) string {
	return digitIndex.ReplaceAllString(entryIndex.ReplaceAllString(name, "entry/"), "$1/N/")
}

// corpusEdit applies the named tamper-corpus edit to the scenario's
// materialized result. The two edits of the user's own inputs return the
// query and role the user verifies against instead.
func (fx *soundFix) corpusEdit(sc soundScenario, name string) ([]*engine.Chunk, engine.Query, string, bool) {
	res, err := fx.pub.Execute(sc.role, sc.q)
	if err != nil {
		return nil, sc.q, sc.role, false
	}
	chunks := engine.ChunkResult(res, sc.chunkRows)
	switch name {
	case "user/other-range":
		q := sc.q
		q.KeyLo += 5
		return chunks, q, sc.role, true
	case "user/other-role":
		return chunks, sc.q, "viewer", true
	}
	for _, m := range resultMutations(res) {
		if m.name == name {
			edited := *res
			m.apply(&edited)
			return engine.ChunkResult(&edited, sc.chunkRows), sc.q, sc.role, true
		}
	}
	for _, m := range chunkMutations(len(chunks)) {
		if m.name == name {
			return m.apply(chunks), sc.q, sc.role, true
		}
	}
	return nil, sc.q, sc.role, false
}

// stream is the honest chunk stream for a scenario over a relation, or
// nil when the publisher refuses the query.
func (fx *soundFix) stream(t *testing.T, sc soundScenario, sr *core.SignedRelation) []*engine.Chunk {
	pub := fx.pub
	if sr != fx.sr {
		pub = fx.stale
	}
	var st engine.ResultStream
	opts := engine.StreamOpts{ChunkRows: sc.chunkRows}
	if sc.k == 1 || sr != fx.sr {
		var err error
		if st, err = pub.ExecuteStreamOn(sr, sc.role, sc.q, opts); err != nil {
			return nil
		}
	} else {
		role, eff, err := engine.PlanQuery(fx.policy, sr.Params, sr.Schema, sc.role, sc.q)
		if err != nil {
			return nil
		}
		set := fx.sets[sc.k]
		sub := set.Spec.Decompose(eff.KeyLo, eff.KeyHi)
		slices := make([]engine.ShardSlice, len(sub))
		for i, s := range sub {
			slices[i] = engine.ShardSlice{Shard: s.Shard, SR: set.Slices[s.Shard], Lo: s.Lo, Hi: s.Hi}
		}
		prev := func() (*core.SignedRelation, bool) {
			if sub[0].Shard == 0 {
				return nil, false
			}
			return set.Slices[sub[0].Shard-1], true
		}
		if st, err = pub.FanoutStream(role, eff, slices, prev, opts); err != nil {
			t.Fatal(err)
		}
	}
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

// private re-reads chunks through their frames, so edits never write into
// the publisher's relation; a chunk no frame can carry stays as it is.
func private(t *testing.T, chunks []*engine.Chunk) []*engine.Chunk {
	out := make([]*engine.Chunk, len(chunks))
	for i, c := range chunks {
		out[i] = c
		var buf bytes.Buffer
		if wire.WriteChunkFrame(&buf, c) == nil {
			d, err := wire.ReadChunkFrame(&buf)
			if err != nil {
				t.Fatalf("chunk %d written but not read back: %v", i, err)
			}
			out[i] = d
		}
	}
	return out
}

// An edit is four bytes: op (one of these, modulo editOps), then x, y, z.
// Entry positions count across chunks; every index wraps.
const (
	editDropEntry    = iota // entry x
	editDupEntry            // entry x, the copy after it
	editSwapEntries         // entries x and y
	editDropChunk           // chunk x
	editDupChunk            // chunk x
	editSwapChunks          // chunks x and y
	editNeighbourKey        // entry x takes the key of the entry after (y even) or before it
	editShiftKey            // entry x's key +1 (y even) or -1
	editMode                // entry x's mode becomes y%5
	editShardSeq            // chunk x's shard becomes y%5 (z even) or its Seq becomes y
	editDigest              // field y%2 of entry x (C, a hidden leaf) becomes a digest of the relation
	editOtherC              // entry x's chain digest C becomes record z's (y even) or that of the stream's entry x+1+z
	editSplice              // chunk y of the whole-domain stream (z even) or of the stale epoch goes in at x
	editBoundary            // the left (y even) or right boundary record goes in as a result, its key in range if z is odd
	editKeyLeaf             // entry x's key leaf becomes record z's: replaced when hidden, appended otherwise
	editFlip                // bit z%8 of byte y·256+z of frame x, after encoding
	editServe               // the stream answers another query: y%4 picks the filter A <= z%3-1, DISTINCT toggled, projection z%4 or the other role
	editSwapOther           // the left (y even) or right boundary's OtherCombined becomes the combined digest of the side its chain proves
	editOps
)

// edit applies edits to chunks and returns the encoded frames; ok is
// false when a chunk has no encoding.
func (fx *soundFix) edit(t *testing.T, sc soundScenario, chunks []*engine.Chunk, edits []byte) (frames [][]byte, ok bool) {
	type pos struct{ c, e int }
	entries := func() []pos {
		var out []pos
		for ci, c := range chunks {
			for ei := range c.Entries {
				out = append(out, pos{ci, ei})
			}
		}
		return out
	}
	var flips [][3]byte
	for ; len(edits) >= 4; edits = edits[4:] {
		op, x, y, z := edits[0]%editOps, edits[1], edits[2], edits[3]
		if op == editFlip {
			flips = append(flips, [3]byte{x, y, z})
			continue
		}
		if op == editServe {
			other := sc
			switch y % 4 {
			case 0:
				other.q.Filters = []engine.Filter{{Col: "A", Op: engine.OpLe, Val: relation.IntVal(int64(z%3) - 1)}}
			case 1:
				other.q.Distinct = !other.q.Distinct
			case 2:
				other.q.Project = [][]string{nil, {"A"}, {"B"}, {"B", "A"}}[z%4]
			default:
				other.role = map[string]string{"all": "viewer", "viewer": "all"}[sc.role]
			}
			if served := fx.stream(t, other, fx.sr); served != nil {
				chunks = private(t, served)
			}
			continue
		}
		if op >= editDropChunk && op <= editSwapChunks || op == editShardSeq || op == editSplice || op == editBoundary || op == editSwapOther {
			fx.editChunks(t, sc, &chunks, op, int(x), int(y), int(z))
			continue
		}
		es := entries()
		if len(es) == 0 {
			continue
		}
		p := es[int(x)%len(es)]
		c := chunks[p.c]
		e := &c.Entries[p.e]
		switch op {
		case editDropEntry:
			c.Entries = slices.Delete(slices.Clip(c.Entries), p.e, p.e+1)
		case editDupEntry:
			c.Entries = slices.Insert(slices.Clip(c.Entries), p.e+1, *e)
		case editSwapEntries:
			q := es[int(y)%len(es)]
			*e, chunks[q.c].Entries[q.e] = chunks[q.c].Entries[q.e], *e
		case editNeighbourKey:
			i := (int(x) % len(es)) + 1
			if y%2 == 1 {
				i -= 2
			}
			if i >= 0 && i < len(es) {
				e.Key = chunks[es[i].c].Entries[es[i].e].Key
			}
		case editShiftKey:
			if y%2 == 0 {
				e.Key++
			} else {
				e.Key--
			}
		case editMode:
			e.Mode = engine.EntryMode(y % 5)
		case editDigest:
			d := fx.digests[(int(y)/2*256+int(z))%len(fx.digests)]
			if y%2 == 0 {
				e.Combined = d
			} else if len(e.HiddenLeaves) > 0 {
				e.HiddenLeaves = slices.Clone(e.HiddenLeaves)
				e.HiddenLeaves[int(z)%len(e.HiddenLeaves)] = d
			}
		case editOtherC:
			if y%2 == 0 {
				e.Combined = fx.sr.Recs[int(z)%len(fx.sr.Recs)].Combined
			} else {
				q := es[(int(x)+1+int(z))%len(es)]
				e.Combined = chunks[q.c].Entries[q.e].Combined
			}
		case editKeyLeaf:
			leaf := core.KeyLeaf(fx.h, fx.keys[int(z)%len(fx.keys)])
			e.HiddenLeaves = slices.Clone(e.HiddenLeaves)
			if e.Mode == engine.EntryFilteredHidden && len(e.HiddenLeaves) > 0 {
				e.HiddenLeaves[len(e.HiddenLeaves)-1] = leaf
			} else {
				e.HiddenLeaves = append(e.HiddenLeaves, leaf)
			}
		}
	}
	for _, c := range chunks {
		var buf bytes.Buffer
		if err := wire.WriteChunkFrame(&buf, c); err != nil {
			return nil, false
		}
		frames = append(frames, buf.Bytes())
	}
	for _, fl := range flips {
		if len(frames) > 0 {
			fr := frames[int(fl[0])%len(frames)]
			fr[4+(int(fl[1])*256+int(fl[2]))%(len(fr)-4)] ^= 1 << (fl[2] % 8) // a payload byte
		}
	}
	return frames, true
}

// editChunks applies the chunk-level edits.
func (fx *soundFix) editChunks(t *testing.T, sc soundScenario, chunks *[]*engine.Chunk, op byte, x, y, z int) {
	cs := *chunks
	if len(cs) == 0 {
		return
	}
	i := x % len(cs)
	switch op {
	case editDropChunk:
		*chunks = slices.Delete(slices.Clip(cs), i, i+1)
	case editDupChunk:
		c := *cs[i]
		*chunks = slices.Insert(slices.Clip(cs), i+1, &c)
	case editSwapChunks:
		j := y % len(cs)
		cs[i], cs[j] = cs[j], cs[i]
	case editShardSeq:
		c := *cs[i]
		if z%2 == 0 {
			c.Shard = y % 5
		} else {
			c.Seq = uint64(y)
		}
		cs[i] = &c
	case editSplice:
		alt := sc
		alt.k = 1
		src := fx.sr
		if z%2 == 0 {
			alt.q.KeyLo, alt.q.KeyHi = 0, 0
		} else {
			src = fx.staleSR
		}
		if other := private(t, fx.stream(t, alt, src)); len(other) > 0 {
			*chunks = slices.Insert(slices.Clip(cs), i, other[y%len(other)])
		}
	case editBoundary:
		fx.insertBoundary(t, sc, chunks, y%2 == 1, z%2 == 1)
	case editSwapOther:
		for i, c := range cs {
			if c.Type != engine.ChunkHeader && c.Type != engine.ChunkFooter {
				continue
			}
			edited := *c
			if bp := &edited.Left; c.Type == engine.ChunkHeader && y%2 == 0 {
				fx.swapOther(bp, func(r *core.SignedRecord) (hashx.Digest, hashx.Digest) { return r.DownCombined, r.UpCombined })
			} else if bp := &edited.Right; c.Type == engine.ChunkFooter && y%2 == 1 {
				fx.swapOther(bp, func(r *core.SignedRecord) (hashx.Digest, hashx.Digest) { return r.UpCombined, r.DownCombined })
			}
			cs[i] = &edited
		}
	}
}

// swapOther replaces a record boundary's OtherCombined with the combined
// digest of the side its chain proves: sides returns a record's (other,
// proven) pair, which finds the record by its other side.
func (fx *soundFix) swapOther(bp *core.BoundaryProof, sides func(*core.SignedRecord) (other, proven hashx.Digest)) {
	for i := range fx.sr.Recs {
		if other, proven := sides(fx.sr.Recs[i]); bp.Kind == core.KindRecord && other.Equal(bp.OtherCombined) {
			bp.OtherCombined = proven
			return
		}
	}
}

// insertBoundary puts the record just outside the effective range into
// the stream as a result entry, disclosed as the query's projection
// would disclose it — with its true key, or with the range's nearest key.
func (fx *soundFix) insertBoundary(t *testing.T, sc soundScenario, chunks *[]*engine.Chunk, right, inRange bool) {
	_, eff, err := engine.PlanQuery(fx.policy, fx.sr.Params, fx.sr.Schema, sc.role, sc.q)
	if err != nil {
		return
	}
	wide := sc
	wide.k, wide.q.KeyLo, wide.q.KeyHi = 1, 0, 0
	var entries []engine.VOEntry // record i+1's entry at i
	for _, c := range private(t, fx.stream(t, wide, fx.sr)) {
		entries = append(entries, c.Entries...)
	}
	idx := -1
	for i, rec := range fx.sr.Recs[1 : len(fx.sr.Recs)-1] {
		if !right && rec.Key() < eff.KeyLo || right && idx < 0 && rec.Key() > eff.KeyHi {
			idx = i
		}
	}
	if idx < 0 || idx >= len(entries) {
		return
	}
	e := entries[idx]
	if inRange {
		e.Key = eff.KeyLo
		if right {
			e.Key = eff.KeyHi
		}
	}
	var at *engine.Chunk // the first entries chunk, or the last one for the right boundary
	for _, c := range *chunks {
		if c.Type == engine.ChunkEntries && (at == nil || right) {
			at = c
		}
	}
	switch {
	case at == nil && len(*chunks) > 0: // an empty range: the entry gets a chunk of its own
		*chunks = slices.Insert(slices.Clip(*chunks), 1, &engine.Chunk{Type: engine.ChunkEntries, Seq: 1, Entries: []engine.VOEntry{e}})
	case at != nil && right:
		at.Entries = append(slices.Clip(at.Entries), e)
	case at != nil:
		at.Entries = slices.Insert(slices.Clip(at.Entries), 0, e)
	}
}
