package relalg_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/paper/relalg"
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

// joinFixture builds the PK-FK pair from the paper's setting: an Emp
// relation signed on its Dept foreign key, and a Dept relation signed on
// its primary key.
type joinFixture struct {
	h        *hashx.Hasher
	pub      *engine.Publisher
	rv, sv   *verify.Verifier
	role     accessctl.Role
	empRel   *relation.Relation
	deptRel  *relation.Relation
	empSR    *core.SignedRelation
	deptSR   *core.SignedRelation
	empPars  core.Params
	deptPars core.Params
}

func newJoinFixture(t testing.TB, empDepts []uint64, deptIDs []uint64) *joinFixture {
	t.Helper()
	h := hashx.New()
	k := signKey(t)

	empSchema := relation.Schema{
		Name:    "EmpByDept",
		KeyName: "Dept", // foreign key is the sort key, per Section 4.3
		Cols: []relation.Column{
			{Name: "Name", Type: relation.TypeString},
		},
	}
	empRel, err := relation.New(empSchema, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range empDepts {
		if _, err := empRel.Insert(relation.Tuple{Key: d, Attrs: []relation.Value{
			relation.StringVal(strings.Repeat("e", 1) + string(rune('A'+i))),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	deptSchema := relation.Schema{
		Name:    "Dept",
		KeyName: "DeptID",
		Cols: []relation.Column{
			{Name: "DeptName", Type: relation.TypeString},
		},
	}
	deptRel, err := relation.New(deptSchema, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deptIDs {
		if _, err := deptRel.Insert(relation.Tuple{Key: d, Attrs: []relation.Value{
			relation.StringVal("dept"),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	empPars, err := core.NewParams(0, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	deptPars := empPars
	empSR, err := core.Build(h, k, empPars, empRel)
	if err != nil {
		t.Fatal(err)
	}
	deptSR, err := core.Build(h, k, deptPars, deptRel)
	if err != nil {
		t.Fatal(err)
	}
	role := accessctl.Role{Name: "all"}
	pub := engine.NewPublisher(h, k.Public(), accessctl.NewPolicy(role))
	if err := pub.AddRelation(empSR, false); err != nil {
		t.Fatal(err)
	}
	if err := pub.AddRelation(deptSR, false); err != nil {
		t.Fatal(err)
	}
	return &joinFixture{
		h: h, pub: pub, role: role,
		rv:     verify.New(h, k.Public(), empPars, empSchema),
		sv:     verify.New(h, k.Public(), deptPars, deptSchema),
		empRel: empRel, deptRel: deptRel, empSR: empSR, deptSR: deptSR,
		empPars: empPars, deptPars: deptPars,
	}
}

func TestPKFKJoinRoundTrip(t *testing.T) {
	// Employees in departments 10,10,20,30; departments 10,20,30,40.
	f := newJoinFixture(t, []uint64{10, 10, 20, 30}, []uint64{10, 20, 30, 40})
	q := relalg.JoinQuery{R: "EmpByDept", S: "Dept", KeyLo: 1, KeyHi: 25}
	res, err := relalg.ExecuteJoin(f.pub, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := relalg.VerifyJoin(f.rv, f.sv, q, f.role, res)
	if err != nil {
		t.Fatal(err)
	}
	// Employees in dept 10 (x2) and 20 (x1) are in range; each joins one
	// department row.
	if len(rows) != 3 {
		t.Fatalf("joined rows = %d, want 3", len(rows))
	}
	for _, jr := range rows {
		if jr.RRow.Key != jr.SRow.Key {
			t.Fatalf("join key mismatch: %d vs %d", jr.RRow.Key, jr.SRow.Key)
		}
	}
}

func TestPKFKJoinDetectsWithheldS(t *testing.T) {
	f := newJoinFixture(t, []uint64{10, 20}, []uint64{10, 20})
	q := relalg.JoinQuery{R: "EmpByDept", S: "Dept"}
	res, err := relalg.ExecuteJoin(f.pub, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	// Publisher withholds one S point result entirely.
	delete(res.S, 20)
	if _, err := relalg.VerifyJoin(f.rv, f.sv, q, f.role, res); err == nil {
		t.Fatal("missing S point result accepted")
	}
}

func TestPKFKJoinDetectsSpuriousS(t *testing.T) {
	f := newJoinFixture(t, []uint64{10}, []uint64{10, 20})
	q := relalg.JoinQuery{R: "EmpByDept", S: "Dept"}
	res, err := relalg.ExecuteJoin(f.pub, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	// Attach an unsolicited S result (information the user did not ask
	// for and cannot trustfully attribute).
	extra, err := f.pub.Execute("all", engine.Query{Relation: "Dept", KeyLo: 20, KeyHi: 20})
	if err != nil {
		t.Fatal(err)
	}
	res.S[20] = extra
	if _, err := relalg.VerifyJoin(f.rv, f.sv, q, f.role, res); err == nil {
		t.Fatal("spurious S result accepted")
	}
}

func TestPKFKJoinDetectsEmptySPoint(t *testing.T) {
	// Simulate a referential-integrity violation: the publisher claims
	// the S point query returned nothing. Build a fixture where dept 20
	// exists so the honest point result is non-empty, then substitute an
	// empty-range result for a different key... which cannot verify for
	// [20,20], so the attack must be detected.
	f := newJoinFixture(t, []uint64{20}, []uint64{20})
	q := relalg.JoinQuery{R: "EmpByDept", S: "Dept"}
	res, err := relalg.ExecuteJoin(f.pub, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	// The strongest move available: an honestly-proven empty range that
	// does not match the point query's bounds.
	fake, err := f.pub.Execute("all", engine.Query{Relation: "Dept", KeyLo: 500, KeyHi: 600})
	if err != nil {
		t.Fatal(err)
	}
	res.S[20] = fake
	if _, err := relalg.VerifyJoin(f.rv, f.sv, q, f.role, res); err == nil {
		t.Fatal("mismatched S point result accepted")
	}
}

// TestPKFKJoinRefusesMissingResults: a JoinResult whose R side is nil,
// or whose S map holds a nil point result, is a publisher's input like
// any other and is refused by name, not with a panic.
func TestPKFKJoinRefusesMissingResults(t *testing.T) {
	f := newJoinFixture(t, []uint64{10, 20}, []uint64{10, 20})
	q := relalg.JoinQuery{R: "EmpByDept", S: "Dept"}
	for _, c := range []struct {
		name   string
		mutate func(*relalg.JoinResult)
	}{
		{"nil R", func(res *relalg.JoinResult) { res.R = nil }},
		{"nil S entry", func(res *relalg.JoinResult) { res.S[20] = nil }},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := relalg.ExecuteJoin(f.pub, "all", q)
			if err != nil {
				t.Fatal(err)
			}
			c.mutate(res)
			if _, err := relalg.VerifyJoin(f.rv, f.sv, q, f.role, res); !errors.Is(err, verify.ErrStreamTruncated) {
				t.Fatalf("got %v, want %v", err, verify.ErrStreamTruncated)
			}
		})
	}
}

func TestBandJoinRoundTrip(t *testing.T) {
	// R keys {5, 50, 500}; S keys {40, 60}. Pairs r<=s:
	// 5-40, 5-60, 50-60 => 3 rows. maxS=60 so R partition is [1,60]
	// containing {5,50}; minR=5 so S partition is [5,999] = {40,60}.
	f := newJoinFixture(t, []uint64{5, 50, 500}, []uint64{40, 60})
	q := relalg.BandJoinQuery{R: "EmpByDept", S: "Dept"}
	res, err := relalg.ExecuteBandJoin(f.pub, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Empty {
		t.Fatal("non-empty band join reported empty")
	}
	rows, err := relalg.VerifyBandJoin(f.rv, f.sv, q, f.role, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("band join rows = %d, want 3", len(rows))
	}
	for _, jr := range rows {
		if jr.RRow.Key > jr.SRow.Key {
			t.Fatalf("band condition violated: %d > %d", jr.RRow.Key, jr.SRow.Key)
		}
	}
}

func TestBandJoinEmpty(t *testing.T) {
	// All R keys above all S keys: empty join.
	f := newJoinFixture(t, []uint64{500, 600}, []uint64{40, 60})
	q := relalg.BandJoinQuery{R: "EmpByDept", S: "Dept"}
	res, err := relalg.ExecuteBandJoin(f.pub, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Empty {
		t.Fatal("separated relations must give an empty join")
	}
	if _, err := relalg.VerifyBandJoin(f.rv, f.sv, q, f.role, res); err != nil {
		t.Fatalf("valid empty band join rejected: %v", err)
	}
}

func TestBandJoinEmptyRelations(t *testing.T) {
	for _, c := range []struct {
		name  string
		rKeys []uint64
		sKeys []uint64
	}{
		{"empty S", []uint64{10, 20}, nil},
		{"empty R", nil, []uint64{10, 20}},
		{"both empty", nil, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newJoinFixture(t, c.rKeys, c.sKeys)
			q := relalg.BandJoinQuery{R: "EmpByDept", S: "Dept"}
			res, err := relalg.ExecuteBandJoin(f.pub, "all", q)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Empty {
				t.Fatal("expected empty join")
			}
			if _, err := relalg.VerifyBandJoin(f.rv, f.sv, q, f.role, res); err != nil {
				t.Fatalf("valid empty band join rejected: %v", err)
			}
		})
	}
}

func TestBandJoinTamperedBoundRejected(t *testing.T) {
	f := newJoinFixture(t, []uint64{5, 50, 500}, []uint64{40, 60})
	q := relalg.BandJoinQuery{R: "EmpByDept", S: "Dept"}
	res, err := relalg.ExecuteBandJoin(f.pub, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	// Claim a smaller max(S): serve the R partition for [1, 40] (hiding
	// employee 50) with a fully consistent VO for that range.
	inner, err := f.pub.Execute("all", engine.Query{Relation: "EmpByDept", KeyLo: 1, KeyHi: 40})
	if err != nil {
		t.Fatal(err)
	}
	res.R = inner
	if _, err := relalg.VerifyBandJoin(f.rv, f.sv, q, f.role, res); err == nil {
		t.Fatal("shrunk R partition accepted")
	}
}

func TestBandJoinFakeEmptyRejected(t *testing.T) {
	// Join is non-empty (5 <= 40) but the publisher claims empty with
	// pivot 4: S ∩ [5, 999] is NOT empty, so the proof cannot be built
	// honestly; build the nearest dishonest variant and check rejection.
	f := newJoinFixture(t, []uint64{5}, []uint64{40})
	q := relalg.BandJoinQuery{R: "EmpByDept", S: "Dept"}
	sEmpty, err := f.pub.Execute("all", engine.Query{Relation: "Dept", KeyLo: 61}) // honestly empty above 60
	if err != nil {
		t.Fatal(err)
	}
	rEmpty, err := f.pub.Execute("all", engine.Query{Relation: "EmpByDept", KeyLo: 1, KeyHi: 4})
	if err != nil {
		t.Fatal(err)
	}
	fake := &relalg.BandJoinResult{Empty: true, Pivot: 4, SEmpty: sEmpty, REmpty: rEmpty}
	if _, err := relalg.VerifyBandJoin(f.rv, f.sv, q, f.role, fake); err == nil {
		t.Fatal("fake empty band join accepted")
	}
	// Variant with a consistent S range but non-empty result rows.
	sAbove, err := f.pub.Execute("all", engine.Query{Relation: "Dept", KeyLo: 5})
	if err != nil {
		t.Fatal(err)
	}
	fake2 := &relalg.BandJoinResult{Empty: true, Pivot: 4, SEmpty: sAbove, REmpty: rEmpty}
	if _, err := relalg.VerifyBandJoin(f.rv, f.sv, q, f.role, fake2); err == nil {
		t.Fatal("fake empty band join with non-empty S accepted")
	}
}
