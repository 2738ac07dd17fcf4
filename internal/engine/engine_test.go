package engine_test

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
	"vcqr/internal/verify"
)

var (
	keyOnce  sync.Once
	ownerKey *sig.PrivateKey
)

func signKey(t testing.TB) *sig.PrivateKey {
	keyOnce.Do(func() {
		k, err := sig.Generate(sig.DefaultBits, nil)
		if err != nil {
			t.Fatalf("keygen: %v", err)
		}
		ownerKey = k
	})
	return ownerKey
}

// fixture wires the full Figure 1 scenario: the Employee table with a
// photo BLOB and a clerk-visibility column, the HR access policy, a
// publisher, and verifiers per role.
type fixture struct {
	h      *hashx.Hasher
	params core.Params
	schema relation.Schema
	sr     *core.SignedRelation
	policy accessctl.Policy
	pub    *engine.Publisher
	roles  map[string]accessctl.Role
}

func empSchema() relation.Schema {
	return relation.Schema{
		Name:    "Emp",
		KeyName: "Salary",
		Cols: []relation.Column{
			{Name: "ID", Type: relation.TypeInt},
			{Name: "Name", Type: relation.TypeString},
			{Name: "Dept", Type: relation.TypeInt},
			{Name: "Photo", Type: relation.TypeBytes},
			{Name: "vis_clerk", Type: relation.TypeBool},
		},
	}
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	h := hashx.New()
	schema := empSchema()
	rel, err := relation.New(schema, 0, 100000)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		salary   uint64
		id       int64
		name     string
		dept     int64
		clerkVis bool
	}{
		{2000, 5, "A", 1, true},
		{3500, 2, "C", 2, true},
		{8010, 1, "D", 1, false}, // hidden from clerks
		{12100, 4, "B", 3, true},
		{25000, 3, "E", 2, false}, // hidden from clerks
	}
	for _, r := range rows {
		if _, err := rel.Insert(relation.Tuple{Key: r.salary, Attrs: []relation.Value{
			relation.IntVal(r.id), relation.StringVal(r.name), relation.IntVal(r.dept),
			relation.BytesVal(make([]byte, 64)), relation.BoolVal(r.clerkVis),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	params, err := core.NewParams(0, 100000, 2)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.Build(h, signKey(t), params, rel)
	if err != nil {
		t.Fatal(err)
	}
	roles := map[string]accessctl.Role{
		"manager": {Name: "manager"},
		"exec":    {Name: "exec", KeyHi: 8999}, // sees only Salary < 9000
		"clerk":   {Name: "clerk", VisibilityCol: "vis_clerk", Cols: []string{"ID", "Name", "Dept", "vis_clerk"}},
	}
	policy := accessctl.NewPolicy(roles["manager"], roles["exec"], roles["clerk"])
	pub := engine.NewPublisher(h, signKey(t).Public(), policy)
	if err := pub.AddRelation(sr, true); err != nil {
		t.Fatal(err)
	}
	return &fixture{h: h, params: params, schema: schema, sr: sr, policy: policy, pub: pub, roles: roles}
}

func (f *fixture) verifier(t testing.TB) *verify.Verifier {
	t.Helper()
	return verify.New(f.h, signKey(t).Public(), f.params, f.schema)
}

func (f *fixture) roundTrip(t *testing.T, role string, q engine.Query) []engine.Row {
	t.Helper()
	res, err := f.pub.Execute(role, q)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	rows, err := f.verifier(t).VerifyResult(q, f.roles[role], res)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	return rows
}

func keys(rows []engine.Row) []uint64 {
	out := make([]uint64, len(rows))
	for i, r := range rows {
		out[i] = r.Key
	}
	return out
}

func eqU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFigure1ManagerQuery is the paper's running example: the HR manager
// asks for Salary < 10000 and receives exactly the three qualifying
// records — no boundary tuples disclosed, unlike the Devanbu scheme.
func TestFigure1ManagerQuery(t *testing.T) {
	f := newFixture(t)
	rows := f.roundTrip(t, "manager", engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 9999})
	if !eqU64(keys(rows), []uint64{2000, 3500, 8010}) {
		t.Fatalf("rows = %v, want [2000 3500 8010]", keys(rows))
	}
}

// TestFigure1ExecutiveRewrite: the HR executive's query is rewritten to
// Salary < 9000; the result is proven complete for the rewritten range
// and the 12100 record never appears, not even as a boundary.
func TestFigure1ExecutiveRewrite(t *testing.T) {
	f := newFixture(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 9999}
	res, err := f.pub.Execute("exec", q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Effective.KeyHi != 8999 {
		t.Fatalf("effective KeyHi = %d, want 8999", res.Effective.KeyHi)
	}
	rows, err := f.verifier(t).VerifyResult(q, f.roles["exec"], res)
	if err != nil {
		t.Fatal(err)
	}
	if !eqU64(keys(rows), []uint64{2000, 3500, 8010}) {
		t.Fatalf("rows = %v", keys(rows))
	}
}

func TestWholeTableAndPointAndEmpty(t *testing.T) {
	f := newFixture(t)
	// Whole table: KeyHi 0 means unbounded.
	rows := f.roundTrip(t, "manager", engine.Query{Relation: "Emp"})
	if len(rows) != 5 {
		t.Fatalf("whole table: %d rows", len(rows))
	}
	// Point query K = 8010.
	rows = f.roundTrip(t, "manager", engine.Query{Relation: "Emp", KeyLo: 8010, KeyHi: 8010})
	if !eqU64(keys(rows), []uint64{8010}) {
		t.Fatalf("point query rows = %v", keys(rows))
	}
	// Empty interior range.
	rows = f.roundTrip(t, "manager", engine.Query{Relation: "Emp", KeyLo: 4000, KeyHi: 8000})
	if len(rows) != 0 {
		t.Fatalf("empty range returned %d rows", len(rows))
	}
	// Empty range beyond all keys.
	rows = f.roundTrip(t, "manager", engine.Query{Relation: "Emp", KeyLo: 30000, KeyHi: 99999})
	if len(rows) != 0 {
		t.Fatalf("beyond-last range returned %d rows", len(rows))
	}
	// Empty range before all keys.
	rows = f.roundTrip(t, "manager", engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 1999})
	if len(rows) != 0 {
		t.Fatalf("before-first range returned %d rows", len(rows))
	}
}

func TestProjectionHidesBlob(t *testing.T) {
	f := newFixture(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 9999, Project: []string{"Name"}}
	res, err := f.pub.Execute("manager", q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := f.verifier(t).VerifyResult(q, f.roles["manager"], res)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Values) != 1 || f.schema.Cols[r.Values[0].Col].Name != "Name" {
			t.Fatalf("projection leaked: %+v", r.Values)
		}
	}
	// The photo BLOB must not appear anywhere in the VO entries.
	for _, e := range res.VO.Entries {
		for _, d := range e.Disclosed {
			if d.Val.Type == relation.TypeBytes {
				t.Fatal("BLOB disclosed despite projection")
			}
		}
	}
}

// TestMultipointQuery is the Section 4.4 example: Salary < 10000 AND
// Dept = 1. Records 2000 and 8010 qualify; 3500 (Dept 2) is inside the
// key range and must appear as a Case 1 filtered entry.
func TestMultipointQuery(t *testing.T) {
	f := newFixture(t)
	q := engine.Query{
		Relation: "Emp", KeyLo: 1, KeyHi: 9999,
		Filters: []engine.Filter{{Col: "Dept", Op: engine.OpEq, Val: relation.IntVal(1)}},
	}
	res, err := f.pub.Execute("manager", q)
	if err != nil {
		t.Fatal(err)
	}
	var modes []engine.EntryMode
	for _, e := range res.VO.Entries {
		modes = append(modes, e.Mode)
	}
	want := []engine.EntryMode{engine.EntryResult, engine.EntryFilteredVisible, engine.EntryResult}
	for i := range want {
		if modes[i] != want[i] {
			t.Fatalf("entry modes = %v, want %v", modes, want)
		}
	}
	rows, err := f.verifier(t).VerifyResult(q, f.roles["manager"], res)
	if err != nil {
		t.Fatal(err)
	}
	if !eqU64(keys(rows), []uint64{2000, 8010}) {
		t.Fatalf("rows = %v, want [2000 8010]", keys(rows))
	}
}

// TestClerkCase2 exercises the record-level policy: the clerk's query
// covers the hidden 8010 record, which must appear as a Case 2 entry
// disclosing only vis_clerk = false.
func TestClerkCase2(t *testing.T) {
	f := newFixture(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 9999, Project: []string{"Name"}}
	res, err := f.pub.Execute("clerk", q)
	if err != nil {
		t.Fatal(err)
	}
	var hidden int
	for _, e := range res.VO.Entries {
		if e.Mode == engine.EntryFilteredHidden {
			hidden++
			if e.Key != 0 {
				t.Fatal("hidden entry leaks its key")
			}
			if len(e.Disclosed) != 1 || !e.Disclosed[0].Val.Equal(relation.BoolVal(false)) {
				t.Fatalf("hidden entry disclosure: %+v", e.Disclosed)
			}
		}
	}
	if hidden != 1 {
		t.Fatalf("hidden entries = %d, want 1", hidden)
	}
	rows, err := f.verifier(t).VerifyResult(q, f.roles["clerk"], res)
	if err != nil {
		t.Fatal(err)
	}
	if !eqU64(keys(rows), []uint64{2000, 3500}) {
		t.Fatalf("clerk rows = %v, want [2000 3500]", keys(rows))
	}
}

func TestManagerCannotSendHiddenEntries(t *testing.T) {
	// A role without a record-level policy must never accept Case 2
	// entries — otherwise a cheating publisher could hide arbitrary
	// records behind them.
	f := newFixture(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 9999}
	res, err := f.pub.Execute("clerk", q) // produces one hidden entry
	if err != nil {
		t.Fatal(err)
	}
	// Present the clerk's result to a manager verifier.
	res.Effective.Project = nil
	_, err = f.verifier(t).VerifyResult(q, f.roles["manager"], res)
	if err == nil {
		t.Fatal("hidden entries accepted for a role without record-level policy")
	}
}

func TestDistinctElidesDuplicates(t *testing.T) {
	f := newFixture(t)
	k := signKey(t)
	// Insert two records that project identically to (8010, "D2", Dept=1)
	// but differ from the original 8010 record (Name "D").
	for i := 0; i < 2; i++ {
		if _, err := f.sr.Insert(f.h, k, relation.Tuple{Key: 8010, Attrs: []relation.Value{
			relation.IntVal(int64(50 + i)), relation.StringVal("D2"), relation.IntVal(1),
			relation.BytesVal(make([]byte, 8)), relation.BoolVal(true),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	// The owner-side inserts drop the crypto index; republishing builds it.
	if err := f.pub.AddRelation(f.sr, false); err != nil {
		t.Fatal(err)
	}
	q := engine.Query{
		Relation: "Emp", KeyLo: 8010, KeyHi: 8010,
		Project: []string{"Name", "Dept"}, Distinct: true,
	}
	res, err := f.pub.Execute("manager", q)
	if err != nil {
		t.Fatal(err)
	}
	// The publisher ships every covered record whole; the verifier
	// releases each distinct row once.
	for _, e := range res.VO.Entries {
		if e.Mode != engine.EntryResult {
			t.Fatalf("entry mode %v under DISTINCT, want every entry a result", e.Mode)
		}
	}
	rows, err := f.verifier(t).VerifyResult(q, f.roles["manager"], res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("distinct rows = %d, want 2 (records 50/51 project identically, original record differs by Name)", len(rows))
	}
	// Without DISTINCT the same entries release every row.
	q2 := q
	q2.Distinct = false
	res.Effective.Distinct = false
	if rows, err := f.verifier(t).VerifyResult(q2, f.roles["manager"], res); err != nil || len(rows) != 3 {
		t.Fatalf("without DISTINCT: %d rows, %v; want 3", len(rows), err)
	}
}

// TestAddRelationRefusesUnindexableRelation: a relation whose signature
// bytes no crypto index can hold — one signature equal to N, ingested
// with validation off — is refused at ingest with core.ErrAggIndex, not
// registered to be served by a slower path.
func TestAddRelationRefusesUnindexableRelation(t *testing.T) {
	f := newFixture(t)
	key := signKey(t).Public()
	bad := &core.SignedRelation{Params: f.sr.Params, Schema: f.sr.Schema, Recs: slices.Clone(f.sr.Recs)}
	bad.Own(2).Sig = key.N.FillBytes(make([]byte, key.SigBytes()))
	pub := engine.NewPublisher(f.h, key, f.policy)
	if err := pub.AddRelation(bad, false); !errors.Is(err, core.ErrAggIndex) {
		t.Fatalf("AddRelation with a signature equal to N: %v, want core.ErrAggIndex", err)
	}
	if _, ok := pub.Relation("Emp"); ok {
		t.Fatal("the refused relation was registered")
	}
}

func TestQueryValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := f.pub.Execute("manager", engine.Query{Relation: "Nope"}); !errors.Is(err, engine.ErrUnknownRelation) {
		t.Errorf("unknown relation: %v", err)
	}
	if _, err := f.pub.Execute("intern", engine.Query{Relation: "Emp"}); err == nil {
		t.Error("unknown role accepted")
	}
	if _, err := f.pub.Execute("manager", engine.Query{Relation: "Emp", Project: []string{"Bogus"}}); !errors.Is(err, engine.ErrUnknownColumn) {
		t.Errorf("unknown projection column: %v", err)
	}
	if _, err := f.pub.Execute("manager", engine.Query{
		Relation: "Emp",
		Filters:  []engine.Filter{{Col: "Bogus", Op: engine.OpEq, Val: relation.IntVal(1)}},
	}); !errors.Is(err, engine.ErrUnknownColumn) {
		t.Errorf("unknown filter column: %v", err)
	}
	if _, err := f.pub.Execute("manager", engine.Query{Relation: "Emp", KeyLo: 50, KeyHi: 10}); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := f.pub.Execute("exec", engine.Query{Relation: "Emp", KeyLo: 9500, KeyHi: 9999}); !errors.Is(err, engine.ErrEmptyRewrite) {
		t.Errorf("range outside exec rights: %v", err)
	}
}

// TestRandomisedRoundTrips fuzzes the full pipeline: random relations,
// random queries, honest publisher — everything must verify; then random
// single-bit VO corruption — nothing must verify while claiming the
// original rows.
func TestRandomisedRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := hashx.New()
	schema := empSchema()
	k := signKey(t)
	span := uint64(1 << 20)
	rel, err := relation.New(schema, 0, span)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		key := uint64(rng.Int63n(int64(span-2))) + 1
		rel.Insert(relation.Tuple{Key: key, Attrs: []relation.Value{
			relation.IntVal(int64(i)), relation.StringVal("r"), relation.IntVal(int64(i % 4)),
			relation.BytesVal(make([]byte, 16)), relation.BoolVal(i%5 != 0),
		}})
	}
	params, err := core.NewParams(0, span, 2)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.Build(h, k, params, rel)
	if err != nil {
		t.Fatal(err)
	}
	role := accessctl.Role{Name: "all"}
	pub := engine.NewPublisher(h, k.Public(), accessctl.NewPolicy(role))
	if err := pub.AddRelation(sr, false); err != nil {
		t.Fatal(err)
	}
	v := verify.New(h, k.Public(), params, schema)

	for trial := 0; trial < 30; trial++ {
		lo := uint64(rng.Int63n(int64(span-2))) + 1
		hi := lo + uint64(rng.Int63n(int64(span/4)))
		if hi >= span {
			hi = span - 1
		}
		q := engine.Query{Relation: "Emp", KeyLo: lo, KeyHi: hi}
		if trial%3 == 0 {
			q.Filters = []engine.Filter{{Col: "Dept", Op: engine.OpLe, Val: relation.IntVal(1)}}
		}
		if trial%4 == 0 {
			q.Project = []string{"Name", "Dept"}
		}
		res, err := pub.Execute("all", q)
		if err != nil {
			t.Fatalf("trial %d execute: %v", trial, err)
		}
		rows, err := v.VerifyResult(q, role, res)
		if err != nil {
			t.Fatalf("trial %d verify: %v", trial, err)
		}
		// Cross-check row keys against ground truth.
		var want []uint64
		for _, tp := range rel.Tuples {
			if tp.Key < lo || tp.Key > hi {
				continue
			}
			if q.Filters != nil && tp.Attrs[schema.ColIndex("Dept")].Int > 1 {
				continue
			}
			want = append(want, tp.Key)
		}
		if !eqU64(keys(rows), want) {
			t.Fatalf("trial %d: rows %v, want %v", trial, keys(rows), want)
		}
	}
}

// TestConcurrentQueries hammers one publisher from many goroutines; with
// -race this pins down that query execution is read-only over the signed
// relation and the hasher's counter is the only shared mutable state.
func TestConcurrentQueries(t *testing.T) {
	f := newFixture(t)
	v := f.verifier(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				lo := uint64(1 + (g*1000+i*97)%20000)
				q := engine.Query{Relation: "Emp", KeyLo: lo, KeyHi: lo + 20000}
				res, err := f.pub.Execute("manager", q)
				if err != nil {
					errs <- err
					return
				}
				if _, err := v.VerifyResult(q, f.roles["manager"], res); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestAccountingPositive(t *testing.T) {
	f := newFixture(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 9999}
	res, err := f.pub.Execute("manager", q)
	if err != nil {
		t.Fatal(err)
	}
	acc := res.VO.Account(f.h.Size(), signKey(t).Public().SigBytes())
	if acc.Digests <= 0 || acc.Signatures != 1 || acc.Bytes() <= 0 {
		t.Fatalf("accounting degenerate: %+v", acc)
	}
	// Empty result still has authentication bytes.
	res2, err := f.pub.Execute("manager", engine.Query{Relation: "Emp", KeyLo: 4000, KeyHi: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if res2.VO.Account(f.h.Size(), signKey(t).Public().SigBytes()).Bytes() <= 0 {
		t.Fatal("empty result VO has no bytes")
	}
}
