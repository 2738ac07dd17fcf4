package multiorder_test

import (
	"errors"
	"sync"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/paper/adversary"
	"vcqr/internal/paper/multiorder"
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

func empRel(t testing.TB) *relation.Relation {
	schema := relation.Schema{
		Name:    "Emp",
		KeyName: "Salary",
		Cols: []relation.Column{
			{Name: "ID", Type: relation.TypeInt},
			{Name: "Name", Type: relation.TypeString},
			{Name: "Dept", Type: relation.TypeInt},
		},
	}
	rel, err := relation.New(schema, 0, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		salary uint64
		id     int64
		name   string
		dept   int64
	}{
		{2000, 5, "A", 1}, {3500, 2, "C", 2}, {8010, 1, "D", 1},
		{12100, 4, "B", 3}, {25000, 3, "E", 2},
	} {
		if _, err := rel.Insert(relation.Tuple{Key: r.salary, Attrs: []relation.Value{
			relation.IntVal(r.id), relation.StringVal(r.name), relation.IntVal(r.dept),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

func buildTable(t testing.TB) (*hashx.Hasher, *multiorder.Table) {
	t.Helper()
	h := hashx.New()
	tab, err := multiorder.Build(h, signKey(t), empRel(t), 2, []multiorder.OrderSpec{
		{Col: "Dept", L: 0, U: 64, Base: 2},
		{Col: "ID", L: 0, U: 1024, Base: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, tab
}

func TestBuildShapeAndCost(t *testing.T) {
	_, tab := buildTable(t)
	if len(tab.Secondary) != 2 {
		t.Fatalf("secondary orderings = %d", len(tab.Secondary))
	}
	// 3 orderings x (5 records + 2 delimiters) = 21 signatures.
	if tab.Signatures != 21 {
		t.Fatalf("Signatures = %d, want 21", tab.Signatures)
	}
	if m := tab.CostMultiplier(); m != 3 {
		t.Fatalf("CostMultiplier = %v, want 3", m)
	}
	if len(tab.All()) != 3 {
		t.Fatalf("All() = %d relations", len(tab.All()))
	}
}

func TestRouting(t *testing.T) {
	_, tab := buildTable(t)
	if sr, err := tab.For("Salary"); err != nil || sr != tab.Primary {
		t.Fatalf("For(Salary): %v", err)
	}
	if sr, err := tab.For("Dept"); err != nil || sr.Schema.KeyName != "Dept" {
		t.Fatalf("For(Dept): %v", err)
	}
	if _, err := tab.For("Name"); !errors.Is(err, multiorder.ErrNoOrder) {
		t.Fatalf("For(Name): %v", err)
	}
}

// TestRangeOnSecondaryAttribute is the point of the package: "Dept = 1"
// — a range predicate on an unsorted attribute of the base table —
// becomes a completeness-verifiable range query on the Dept ordering,
// with the salary recoverable from the PrimaryKeyCol column.
func TestRangeOnSecondaryAttribute(t *testing.T) {
	h, tab := buildTable(t)
	sr, err := tab.For("Dept")
	if err != nil {
		t.Fatal(err)
	}
	role := accessctl.Role{Name: "all"}
	pub := engine.NewPublisher(h, signKey(t).Public(), accessctl.NewPolicy(role))
	for _, o := range tab.All() {
		if err := pub.AddRelation(o, true); err != nil {
			t.Fatal(err)
		}
	}
	q := engine.Query{Relation: sr.Schema.Name, KeyLo: 1, KeyHi: 1} // Dept = 1
	res, err := pub.Execute("all", q)
	if err != nil {
		t.Fatal(err)
	}
	v := verify.New(h, signKey(t).Public(), sr.Params, sr.Schema)
	rows, err := v.VerifyResult(q, role, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("Dept=1 rows = %d, want 2", len(rows))
	}
	// Recover the primary keys (salaries 2000 and 8010).
	pkIdx := sr.Schema.ColIndex(multiorder.PrimaryKeyCol)
	salaries := map[int64]bool{}
	for _, r := range rows {
		for _, d := range r.Values {
			if d.Col == pkIdx {
				salaries[d.Val.Int] = true
			}
		}
	}
	if !salaries[2000] || !salaries[8010] || len(salaries) != 2 {
		t.Fatalf("recovered salaries %v, want {2000, 8010}", salaries)
	}
}

// TestSecondaryOrderingDetectsOmission: the completeness guarantee holds
// on secondary orderings too.
func TestSecondaryOrderingDetectsOmission(t *testing.T) {
	h, tab := buildTable(t)
	sr, err := tab.For("Dept")
	if err != nil {
		t.Fatal(err)
	}
	role := accessctl.Role{Name: "all"}
	pub := engine.NewPublisher(h, signKey(t).Public(), accessctl.NewPolicy(role))
	if err := pub.AddRelation(sr, false); err != nil {
		t.Fatal(err)
	}
	adv := adversary.New(pub, h, signKey(t).Public())
	q := engine.Query{Relation: sr.Schema.Name, KeyLo: 1, KeyHi: 2}
	evil, err := adv.Execute("all", q, adversary.AttackOmitFirst)
	if err != nil {
		t.Fatal(err)
	}
	v := verify.New(h, signKey(t).Public(), sr.Params, sr.Schema)
	if _, err := v.VerifyResult(q, role, evil); err == nil {
		t.Fatal("omission on secondary ordering not detected")
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	h := hashx.New()
	// Non-int column.
	if _, err := multiorder.Build(h, signKey(t), empRel(t), 2, []multiorder.OrderSpec{
		{Col: "Name", L: 0, U: 64, Base: 2},
	}); err == nil {
		t.Fatal("string ordering column accepted")
	}
	// Unknown column.
	if _, err := multiorder.Build(h, signKey(t), empRel(t), 2, []multiorder.OrderSpec{
		{Col: "Bogus", L: 0, U: 64, Base: 2},
	}); err == nil {
		t.Fatal("unknown ordering column accepted")
	}
	// Value outside the declared domain (Dept values are 1..3; domain
	// (0, 3) excludes 3).
	if _, err := multiorder.Build(h, signKey(t), empRel(t), 2, []multiorder.OrderSpec{
		{Col: "Dept", L: 0, U: 3, Base: 2},
	}); !errors.Is(err, multiorder.ErrColRange) {
		t.Fatalf("out-of-domain value: %v", err)
	}
}

func TestDuplicateSecondaryKeys(t *testing.T) {
	// Two employees share Dept 1 and Dept 2: replica numbering on the
	// derived relation must keep the orderings valid.
	h, tab := buildTable(t)
	sr, _ := tab.For("Dept")
	if err := sr.Validate(h, signKey(t).Public()); err != nil {
		t.Fatalf("Dept ordering invalid: %v", err)
	}
}
