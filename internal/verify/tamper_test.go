package verify_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/mht"
	"vcqr/internal/relation"
	"vcqr/internal/verify"
	"vcqr/internal/wire"
	"vcqr/internal/workload"
)

var updateCorpus = flag.Bool("update", false, "rewrite testdata/tamper_corpus.json from the current code")

const corpusPath = "testdata/tamper_corpus.json"

// namedErrors is every refusal the verifier names, most specific first.
var namedErrors = []struct {
	name string
	err  error
}{
	{"ErrRewriteMismatch", verify.ErrRewriteMismatch}, {"ErrBoundary", verify.ErrBoundary},
	{"ErrEntry", verify.ErrEntry}, {"ErrKeyOutOfRange", verify.ErrKeyOutOfRange},
	{"ErrKeyOrder", verify.ErrKeyOrder}, {"ErrFilterViolation", verify.ErrFilterViolation},
	{"ErrFilteredMatches", verify.ErrFilteredMatches}, {"ErrPrecision", verify.ErrPrecision},
	{"ErrHiddenNotAllowed", verify.ErrHiddenNotAllowed}, {"ErrVisibility", verify.ErrVisibility},
	{"ErrSignature", verify.ErrSignature},
	{"ErrChunkSequence", verify.ErrChunkSequence}, {"ErrChunkShape", verify.ErrChunkShape},
	{"ErrStreamEnded", verify.ErrStreamEnded}, {"ErrStreamTruncated", verify.ErrStreamTruncated},
}

// outcome runs a chunk sequence through a fresh StreamVerifier and names
// what happened: "ok:<rows>" or "<Err name>@<index of the refused chunk>".
// An accepted stream's rows come back too.
func outcome(v *verify.Verifier, q engine.Query, role accessctl.Role, chunks []*engine.Chunk) (string, []engine.Row) {
	sv := v.NewStreamVerifier(q, role)
	rows, at, err := feed(sv, chunks)
	if err == nil {
		err = sv.Finish()
	}
	if err == nil {
		return fmt.Sprintf("ok:%d", len(rows)), rows
	}
	for _, ne := range namedErrors {
		if errors.Is(err, ne.err) {
			return fmt.Sprintf("%s@%d", ne.name, at), nil
		}
	}
	return fmt.Sprintf("unnamed@%d", at), nil
}

// outcomeFunc is how a replay carries a stream to the verifier.
type outcomeFunc func(v *verify.Verifier, q engine.Query, role accessctl.Role, chunks []*engine.Chunk) (string, []engine.Row)

// Copy-on-write byte edits: results share slices with the publisher's
// signed relation, so a mutation never writes through.
func flipped(d []byte) []byte {
	if len(d) == 0 {
		return []byte{1}
	}
	out := append([]byte(nil), d...)
	out[len(out)/2] ^= 0x10
	return out
}

func shorter(d []byte) []byte {
	if len(d) == 0 {
		return nil
	}
	return append([]byte(nil), d[:len(d)-1]...)
}

func longer(d []byte) []byte { return append(append([]byte(nil), d...), 0xAB) }

// digestEdits is the edit set applied to every digest-valued field.
var digestEdits = []struct {
	name string
	fn   func([]byte) []byte
}{
	{"flip", flipped}, {"short", shorter}, {"long", longer}, {"nil", func([]byte) []byte { return nil }},
}

type mutation struct {
	name  string
	apply func(res *engine.Result)
}

// entryMutations enumerates the edits of VO entry i.
func entryMutations(res *engine.Result, i int) []mutation {
	var ms []mutation
	add := func(name string, fn func(e *engine.VOEntry)) {
		ms = append(ms, mutation{fmt.Sprintf("entry%d/%s", i, name), func(r *engine.Result) {
			es := append([]engine.VOEntry(nil), r.VO.Entries...)
			e := es[i]
			e.Disclosed = append([]engine.DisclosedAttr(nil), e.Disclosed...)
			e.HiddenLeaves = append([]hashx.Digest(nil), e.HiddenLeaves...)
			fn(&e)
			es[i] = e
			r.VO.Entries = es
		}})
	}
	e := res.VO.Entries[i]
	add("key+1", func(e *engine.VOEntry) { e.Key++ })
	add("key-1", func(e *engine.VOEntry) { e.Key-- })
	add("key=0", func(e *engine.VOEntry) { e.Key = 0 })
	add("key=max", func(e *engine.VOEntry) { e.Key = ^uint64(0) })
	add("key=hi+1", func(e *engine.VOEntry) { e.Key = res.VO.KeyHi + 1 })
	for mode := engine.EntryMode(0); mode <= 4; mode++ {
		mode := mode
		if mode != e.Mode {
			add(fmt.Sprintf("mode=%d", mode), func(e *engine.VOEntry) { e.Mode = mode })
		}
	}
	if len(e.Disclosed) > 0 {
		add("disclosed/drop-first", func(e *engine.VOEntry) { e.Disclosed = e.Disclosed[1:] })
		add("disclosed/drop-last", func(e *engine.VOEntry) { e.Disclosed = e.Disclosed[:len(e.Disclosed)-1] })
		add("disclosed/dup-first", func(e *engine.VOEntry) { e.Disclosed = append(e.Disclosed, e.Disclosed[0]) })
		add("disclosed/reverse", func(e *engine.VOEntry) {
			for a, b := 0, len(e.Disclosed)-1; a < b; a, b = a+1, b-1 {
				e.Disclosed[a], e.Disclosed[b] = e.Disclosed[b], e.Disclosed[a]
			}
		})
		for _, col := range []int{-1, 0, 3, 4, 5, 99} {
			col := col
			add(fmt.Sprintf("disclosed/col0=%d", col), func(e *engine.VOEntry) { e.Disclosed[0].Col = col })
		}
		add("disclosed/append-col99", func(e *engine.VOEntry) {
			e.Disclosed = append(e.Disclosed, engine.DisclosedAttr{Col: 99, Val: relation.IntVal(1)})
		})
		add("disclosed/append-col-1", func(e *engine.VOEntry) {
			e.Disclosed = append(e.Disclosed, engine.DisclosedAttr{Col: -1, Val: relation.IntVal(1)})
		})
		for k := range e.Disclosed {
			k := k
			add(fmt.Sprintf("disclosed/%d/val=int7", k), func(e *engine.VOEntry) { e.Disclosed[k].Val = relation.IntVal(7) })
			add(fmt.Sprintf("disclosed/%d/val=true", k), func(e *engine.VOEntry) { e.Disclosed[k].Val = relation.BoolVal(true) })
			add(fmt.Sprintf("disclosed/%d/val=false", k), func(e *engine.VOEntry) { e.Disclosed[k].Val = relation.BoolVal(false) })
			add(fmt.Sprintf("disclosed/%d/val=empty", k), func(e *engine.VOEntry) { e.Disclosed[k].Val = relation.Value{} })
		}
	}
	add("disclosed/open-hidden-col", func(e *engine.VOEntry) {
		// Open one more column with a made-up value and withdraw a digest.
		seen := map[int]bool{}
		for _, d := range e.Disclosed {
			seen[d.Col] = true
		}
		for c := 0; c < 5; c++ {
			if !seen[c] {
				e.Disclosed = append(e.Disclosed, engine.DisclosedAttr{Col: c, Val: relation.IntVal(1)})
				break
			}
		}
		if len(e.HiddenLeaves) > 0 {
			e.HiddenLeaves = e.HiddenLeaves[:len(e.HiddenLeaves)-1]
		}
	})
	add("hidden/append-surplus", func(e *engine.VOEntry) { e.HiddenLeaves = append(e.HiddenLeaves, e.Combined) })
	add("hidden/append-surplus-malformed", func(e *engine.VOEntry) { e.HiddenLeaves = append(e.HiddenLeaves, hashx.Digest{1, 2}) })
	add("hidden/nil-all", func(e *engine.VOEntry) { e.HiddenLeaves = nil })
	if len(e.HiddenLeaves) > 0 {
		add("hidden/drop-first", func(e *engine.VOEntry) { e.HiddenLeaves = e.HiddenLeaves[1:] })
		add("hidden/drop-last", func(e *engine.VOEntry) { e.HiddenLeaves = e.HiddenLeaves[:len(e.HiddenLeaves)-1] })
		add("hidden/swap-ends", func(e *engine.VOEntry) {
			n := len(e.HiddenLeaves) - 1
			e.HiddenLeaves[0], e.HiddenLeaves[n] = e.HiddenLeaves[n], e.HiddenLeaves[0]
		})
		for _, ed := range digestEdits {
			ed := ed
			add("hidden/0/"+ed.name, func(e *engine.VOEntry) { e.HiddenLeaves[0] = ed.fn(e.HiddenLeaves[0]) })
			add("hidden/last/"+ed.name, func(e *engine.VOEntry) {
				n := len(e.HiddenLeaves) - 1
				e.HiddenLeaves[n] = ed.fn(e.HiddenLeaves[n])
			})
		}
	}
	for _, ed := range digestEdits {
		ed := ed
		add("combined/"+ed.name, func(e *engine.VOEntry) { e.Combined = ed.fn(e.Combined) })
	}
	return ms
}

// boundaryMutations enumerates the edits of one boundary proof.
func boundaryMutations(side string, pick func(r *engine.Result) *core.BoundaryProof, orig core.BoundaryProof) []mutation {
	var ms []mutation
	add := func(name string, fn func(b *core.BoundaryProof)) {
		ms = append(ms, mutation{side + "/" + name, func(r *engine.Result) {
			b := pick(r)
			b.Chain.Intermediates = append([]hashx.Digest(nil), b.Chain.Intermediates...)
			b.Chain.RepPath = append([]mht.PathElem(nil), b.Chain.RepPath...)
			fn(b)
		}})
	}
	for kind := core.Kind(0); kind <= 4; kind++ {
		kind := kind
		if kind != orig.Kind {
			add(fmt.Sprintf("kind=%d", kind), func(b *core.BoundaryProof) { b.Kind = kind })
		}
	}
	add("canonical-toggle", func(b *core.BoundaryProof) { b.Chain.Canonical = !b.Chain.Canonical })
	for _, idx := range []int{-1, 0, 1, 5, 19, 20, 64} {
		idx := idx
		add(fmt.Sprintf("index=%d", idx), func(b *core.BoundaryProof) { b.Chain.Index = idx })
	}
	add("inter/drop-last", func(b *core.BoundaryProof) {
		b.Chain.Intermediates = b.Chain.Intermediates[:len(b.Chain.Intermediates)-1]
	})
	add("inter/append", func(b *core.BoundaryProof) {
		b.Chain.Intermediates = append(b.Chain.Intermediates, b.Chain.Intermediates[0])
	})
	add("inter/nil-all", func(b *core.BoundaryProof) { b.Chain.Intermediates = nil })
	add("inter/swap-0-1", func(b *core.BoundaryProof) {
		b.Chain.Intermediates[0], b.Chain.Intermediates[1] = b.Chain.Intermediates[1], b.Chain.Intermediates[0]
	})
	for _, j := range []int{0, 7, len(orig.Chain.Intermediates) - 1} {
		j := j
		for _, ed := range digestEdits {
			ed := ed
			add(fmt.Sprintf("inter/%d/%s", j, ed.name), func(b *core.BoundaryProof) {
				b.Chain.Intermediates[j] = ed.fn(b.Chain.Intermediates[j])
			})
		}
	}
	for _, ed := range digestEdits {
		ed := ed
		add("rep-root/"+ed.name, func(b *core.BoundaryProof) { b.Chain.RepRoot = ed.fn(b.Chain.RepRoot) })
		add("canon-digest/"+ed.name, func(b *core.BoundaryProof) { b.Chain.CanonDigest = ed.fn(b.Chain.CanonDigest) })
		add("other-combined/"+ed.name, func(b *core.BoundaryProof) { b.OtherCombined = ed.fn(b.OtherCombined) })
		add("attr-root/"+ed.name, func(b *core.BoundaryProof) { b.AttrRoot = ed.fn(b.AttrRoot) })
	}
	if len(orig.Chain.RepPath) > 0 {
		add("path/drop-last", func(b *core.BoundaryProof) { b.Chain.RepPath = b.Chain.RepPath[:len(b.Chain.RepPath)-1] })
		add("path/append", func(b *core.BoundaryProof) { b.Chain.RepPath = append(b.Chain.RepPath, b.Chain.RepPath[0]) })
		add("path/0/right-toggle", func(b *core.BoundaryProof) { b.Chain.RepPath[0].Right = !b.Chain.RepPath[0].Right })
		for _, ed := range digestEdits {
			ed := ed
			add("path/0/sibling/"+ed.name, func(b *core.BoundaryProof) {
				b.Chain.RepPath[0].Sibling = ed.fn(b.Chain.RepPath[0].Sibling)
			})
		}
	}
	return ms
}

// resultMutations enumerates every edit of a materialized result.
func resultMutations(res *engine.Result) []mutation {
	ms := []mutation{
		{"vo/keylo+1", func(r *engine.Result) { r.VO.KeyLo++ }},
		{"vo/keyhi-1", func(r *engine.Result) { r.VO.KeyHi-- }},
		{"eff/keylo+1", func(r *engine.Result) { r.Effective.KeyLo++; r.VO.KeyLo++ }},
		{"eff/keyhi-1", func(r *engine.Result) { r.Effective.KeyHi--; r.VO.KeyHi-- }},
		{"eff/project=Name", func(r *engine.Result) { r.Effective.Project = []string{"Name"} }},
		{"eff/project=nil", func(r *engine.Result) { r.Effective.Project = nil }},
		{"eff/project=empty", func(r *engine.Result) { r.Effective.Project = []string{} }},
		{"eff/distinct-toggle", func(r *engine.Result) { r.Effective.Distinct = !r.Effective.Distinct }},
		{"eff/filters=nil", func(r *engine.Result) { r.Effective.Filters = nil }},
		{"eff/filters=other", func(r *engine.Result) {
			if len(r.Effective.Filters) > 0 {
				f := append([]engine.Filter(nil), r.Effective.Filters...)
				f[0].Col, f[0].Val = "ID", relation.IntVal(3)
				r.Effective.Filters = f
			}
		}},
		{"eff/filters=unknown-col", func(r *engine.Result) {
			if len(r.Effective.Filters) > 0 {
				f := append([]engine.Filter(nil), r.Effective.Filters...)
				f[0].Col = "NoSuchColumn"
				r.Effective.Filters = f
			}
		}},
		{"sigs/none", func(r *engine.Result) { r.VO.AggSig = nil }},
		{"sigs/agg-flip", func(r *engine.Result) { r.VO.AggSig = flipped(r.VO.AggSig) }},
		{"sigs/agg-short", func(r *engine.Result) { r.VO.AggSig = shorter(r.VO.AggSig) }},
	}
	for _, ed := range digestEdits {
		ed := ed
		ms = append(ms, mutation{"pred-prev-g/" + ed.name, func(r *engine.Result) { r.VO.PredPrevG = ed.fn(r.VO.PredPrevG) }})
	}
	ms = append(ms, boundaryMutations("left", func(r *engine.Result) *core.BoundaryProof { return &r.VO.Left }, res.VO.Left)...)
	ms = append(ms, boundaryMutations("right", func(r *engine.Result) *core.BoundaryProof { return &r.VO.Right }, res.VO.Right)...)
	n := len(res.VO.Entries)
	if n >= 2 {
		ms = append(ms,
			mutation{"entries/swap-0-1", func(r *engine.Result) {
				es := append([]engine.VOEntry(nil), r.VO.Entries...)
				es[0], es[1] = es[1], es[0]
				r.VO.Entries = es
			}},
			mutation{"entries/drop-first", func(r *engine.Result) { r.VO.Entries = r.VO.Entries[1:] }},
			mutation{"entries/drop-last", func(r *engine.Result) { r.VO.Entries = r.VO.Entries[:n-1] }},
			mutation{"entries/drop-middle", func(r *engine.Result) {
				es := append([]engine.VOEntry(nil), r.VO.Entries[:n/2]...)
				r.VO.Entries = append(es, r.VO.Entries[n/2+1:]...)
			}},
			mutation{"entries/dup-first", func(r *engine.Result) {
				r.VO.Entries = append([]engine.VOEntry{r.VO.Entries[0]}, r.VO.Entries...)
			}},
			mutation{"entries/none", func(r *engine.Result) { r.VO.Entries = nil }},
		)
	}
	// One entry of every mode present, plus the two ends.
	picked := map[int]bool{}
	byMode := map[engine.EntryMode]bool{}
	for i, e := range res.VO.Entries {
		if !byMode[e.Mode] || i == n-1 {
			byMode[e.Mode] = true
			picked[i] = true
		}
	}
	idx := make([]int, 0, len(picked))
	for i := range picked {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		ms = append(ms, entryMutations(res, i)...)
	}
	return ms
}

type chunkMutation struct {
	name  string
	apply func(cs []*engine.Chunk) []*engine.Chunk
}

// chunkMutations enumerates stream-shape edits of an n-chunk sequence.
func chunkMutations(n int) []chunkMutation {
	clone := func(cs []*engine.Chunk) []*engine.Chunk { return append([]*engine.Chunk(nil), cs...) }
	return []chunkMutation{
		{"stream/no-header", func(cs []*engine.Chunk) []*engine.Chunk { return cs[1:] }},
		{"stream/no-footer", func(cs []*engine.Chunk) []*engine.Chunk { return cs[:n-1] }},
		{"stream/double-header", func(cs []*engine.Chunk) []*engine.Chunk {
			return append([]*engine.Chunk{cs[0]}, cs...)
		}},
		{"stream/double-footer", func(cs []*engine.Chunk) []*engine.Chunk { return append(clone(cs), cs[n-1]) }},
		{"stream/skip-second", func(cs []*engine.Chunk) []*engine.Chunk {
			return append(clone(cs[:1]), cs[2:]...)
		}},
		{"stream/footer-first", func(cs []*engine.Chunk) []*engine.Chunk {
			return append([]*engine.Chunk{cs[n-1]}, cs[:n-1]...)
		}},
		{"stream/empty-entries-chunk", func(cs []*engine.Chunk) []*engine.Chunk {
			out := append(clone(cs[:1]), &engine.Chunk{Type: engine.ChunkEntries})
			return append(out, cs[1:]...)
		}},
		{"stream/unknown-chunk-type", func(cs []*engine.Chunk) []*engine.Chunk {
			out := append(clone(cs[:1]), &engine.Chunk{Type: 9})
			return append(out, cs[1:]...)
		}},
		{"stream/error-chunk", func(cs []*engine.Chunk) []*engine.Chunk {
			out := append(clone(cs[:1]), &engine.Chunk{Type: engine.ChunkError, Err: "boom"})
			return append(out, cs[1:]...)
		}},
		{"stream/oversize-chunk", func(cs []*engine.Chunk) []*engine.Chunk {
			big := &engine.Chunk{Type: engine.ChunkEntries, Entries: make([]engine.VOEntry, engine.MaxChunkRows+1)}
			out := append(clone(cs[:1]), big)
			return append(out, cs[1:]...)
		}},
	}
}

// tamperFixture is a 40-record employee relation with hidden rows and
// three roles, so every entry mode and every rewrite occurs.
type tamperFixture struct {
	pub   *engine.Publisher
	v     *verify.Verifier
	roles map[string]accessctl.Role
}

func newTamperFixture(t *testing.T) *tamperFixture {
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
	roles := map[string]accessctl.Role{
		"all":   {Name: "all"},
		"clerk": {Name: "clerk", VisibilityCol: "vis_clerk", Cols: []string{"Name", "Dept", "vis_clerk"}},
		"exec":  {Name: "exec", KeyHi: 1 << 19},
	}
	pub := engine.NewPublisher(h, signKey(t).Public(), accessctl.NewPolicy(roles["all"], roles["clerk"], roles["exec"]))
	if err := pub.AddRelation(sr, false); err != nil {
		t.Fatal(err)
	}
	return &tamperFixture{pub: pub, v: verify.New(h, signKey(t).Public(), p, rel.Schema), roles: roles}
}

// replayTamperEdits runs every edit of the corpus — every field of every
// entry mode, both boundary proofs, the rewrite, the signatures and the
// chunk framing — and names each outcome: accepted with N rows, or
// refused with a named error at a given chunk. An accepted edit must
// release exactly the rows the honest stream releases.
func replayTamperEdits(t *testing.T, outcome outcomeFunc) map[string]string {
	f := newTamperFixture(t)
	scenarios := []struct {
		name string
		role string
		q    engine.Query
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
	got := map[string]string{}
	for _, sc := range scenarios {
		role := f.roles[sc.role]
		res, err := f.pub.Execute(sc.role, sc.q)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		honest, honestRows := outcome(f.v, sc.q, role, chunkify(res))
		if honest[:3] != "ok:" {
			t.Fatalf("%s: honest result refused: %s", sc.name, honest)
		}
		got[sc.name+"/honest"] = honest
		record := func(name string, out string, rows []engine.Row) {
			got[sc.name+"/"+name] = out
			if out[:3] == "ok:" && !reflect.DeepEqual(rows, honestRows) {
				t.Errorf("%s/%s: accepted, releasing rows the honest stream does not", sc.name, name)
			}
		}
		for _, m := range resultMutations(res) {
			edited := *res
			m.apply(&edited)
			out, rows := outcome(f.v, sc.q, role, chunkify(&edited))
			record(m.name, out, rows)
		}
		chunks := chunkify(res)
		for _, m := range chunkMutations(len(chunks)) {
			out, rows := outcome(f.v, sc.q, role, m.apply(chunks))
			record(m.name, out, rows)
		}
		// The user's own query and rights are inputs too.
		wrongQ := sc.q
		wrongQ.KeyLo += 5
		out, rows := outcome(f.v, wrongQ, role, chunks)
		record("user/other-range", out, rows)
		out, rows = outcome(f.v, sc.q, f.roles["clerk"], chunks)
		record("user/other-role", out, rows)
	}
	return got
}

func readCorpus(t testing.TB) map[string]string {
	t.Helper()
	buf, err := os.ReadFile(corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestTamperCorpusReplay replays a fixed corpus of VO and stream edits
// and holds each outcome to the committed one, regenerated with -update
// for record format 2 (first generated at commit c274afd, before the
// kernel rebuild): a verifier change must accept and refuse exactly the
// same streams, and no accepted edit may release other rows than the
// honest stream.
func TestTamperCorpusReplay(t *testing.T) {
	got := replayTamperEdits(t, outcome)
	if *updateCorpus {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(corpusPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readCorpus(t)
	if len(got) != len(want) {
		t.Errorf("%d edits replayed, %d in %s", len(got), len(want), corpusPath)
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: %s, corpus: %s", name, g, w)
		}
	}
}

// TestTamperCorpusReplayOverFrames replays the same corpus with every
// edited stream carried through the wire's chunk frames first — encoded,
// decoded, then verified — and holds it to the same unchanged file: what
// the transport hands the verifier is field for field what the publisher
// put in, so every edit is refused by the same named error at the same
// chunk. The two edits a transport cannot carry as made are spelled out.
func TestTamperCorpusReplayOverFrames(t *testing.T) {
	got := replayTamperEdits(t, func(v *verify.Verifier, q engine.Query, role accessctl.Role, chunks []*engine.Chunk) (string, []engine.Row) {
		framed := make([]*engine.Chunk, len(chunks))
		for i, c := range chunks {
			var frame bytes.Buffer
			if err := wire.WriteChunkFrame(&frame, c); err != nil {
				return fmt.Sprintf("unencodable@%d", i), nil
			}
			var err error
			if framed[i], err = wire.ReadChunkFrame(&frame); err != nil {
				t.Fatalf("chunk %d written but not read back: %v", i, err)
			}
		}
		return outcome(v, q, role, framed)
	})
	want := readCorpus(t)
	if len(got) != len(want) {
		t.Errorf("%d edits replayed, %d in %s", len(got), len(want), corpusPath)
	}
	for name, w := range want {
		switch {
		case strings.HasSuffix(name, "/stream/unknown-chunk-type"):
			// A chunk type without a tag has no encoding: the stream breaks
			// at the writer, one step before the verifier would refuse it.
			w = "unencodable@1"
		case strings.HasSuffix(name, "/eff/project=empty"):
			// An empty list travels as nil, under gob as now.
			w = want[strings.TrimSuffix(name, "empty")+"nil"]
		}
		if g := got[name]; g != w {
			t.Errorf("%s: %s over frames, in process: %s", name, g, w)
		}
	}
}
