package planner_test

import (
	"sort"
	"sync"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/paper/multiorder"
	"vcqr/internal/paper/planner"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
	"vcqr/internal/verify"
	"vcqr/internal/workload"
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

// fixture: 120 employees, primary order on Salary, secondary on Dept
// (Dept = 1 is rare: high selectivity for the secondary ordering).
type pfix struct {
	h    *hashx.Hasher
	tab  *multiorder.Table
	pub  *engine.Publisher
	role accessctl.Role
}

func newPFix(t testing.TB) *pfix {
	t.Helper()
	h := hashx.New()
	rel, err := workload.Employees(workload.EmployeeConfig{
		N: 120, L: 0, U: 1 << 24, PhotoSize: 4, Depts: 12, Seed: 71,
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := multiorder.Build(h, signKey(t), rel, 2, []multiorder.OrderSpec{
		{Col: "Dept", L: 0, U: 64, Base: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	role := accessctl.Role{Name: "all"}
	pub := engine.NewPublisher(h, signKey(t).Public(), accessctl.NewPolicy(role))
	for _, sr := range tab.All() {
		if err := pub.AddRelation(sr, false); err != nil {
			t.Fatal(err)
		}
	}
	return &pfix{h: h, tab: tab, pub: pub, role: role}
}

func TestPlannerPrefersSelectiveOrdering(t *testing.T) {
	f := newPFix(t)
	// Whole salary range + Dept = 1: the Dept ordering covers ~10
	// records, the primary covers all 120.
	q := engine.Query{
		Relation: "Emp",
		Filters:  []engine.Filter{{Col: "Dept", Op: engine.OpEq, Val: relation.IntVal(1)}},
	}
	plan, err := planner.Choose(f.tab, q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Ordering != "Dept" {
		t.Fatalf("plan chose %q (%s), want Dept", plan.Ordering, plan.Explain)
	}
	if plan.Cover >= 120 {
		t.Fatalf("secondary cover %d should be far below 120", plan.Cover)
	}
}

func TestPlannerPrefersPrimaryForTightRange(t *testing.T) {
	f := newPFix(t)
	// A tiny salary range with a non-selective Dept filter: primary wins.
	lo := f.tab.Primary.Recs[1].Key()
	q := engine.Query{
		Relation: "Emp", KeyLo: lo, KeyHi: lo + 10,
		Filters: []engine.Filter{{Col: "Dept", Op: engine.OpGe, Val: relation.IntVal(1)}},
	}
	plan, err := planner.Choose(f.tab, q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Ordering != "Salary" {
		t.Fatalf("plan chose %q (%s), want Salary", plan.Ordering, plan.Explain)
	}
}

// TestBothPlansAgree executes the same logical query under both orderings
// and checks the *verified* result sets coincide — the planner never
// changes answers, only costs.
func TestBothPlansAgree(t *testing.T) {
	f := newPFix(t)
	logical := engine.Query{
		Relation: "Emp", KeyLo: 1, KeyHi: 1 << 23, // lower half of salaries
		Filters: []engine.Filter{{Col: "Dept", Op: engine.OpEq, Val: relation.IntVal(2)}},
	}

	// Plan A: primary ordering, as stated.
	resA, err := f.pub.Execute("all", logical)
	if err != nil {
		t.Fatal(err)
	}
	vPrimary := verify.New(f.h, signKey(t).Public(), f.tab.Primary.Params, f.tab.Primary.Schema)
	rowsA, err := vPrimary.VerifyResult(logical, f.role, resA)
	if err != nil {
		t.Fatal(err)
	}

	// Plan B: whatever the planner picks (the Dept ordering here).
	plan, err := planner.Choose(f.tab, logical)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Ordering != "Dept" {
		t.Fatalf("expected the Dept ordering, got %s", plan.Explain)
	}
	resB, err := f.pub.Execute("all", plan.Query)
	if err != nil {
		t.Fatal(err)
	}
	deptSR, err := f.tab.For("Dept")
	if err != nil {
		t.Fatal(err)
	}
	vDept := verify.New(f.h, signKey(t).Public(), deptSR.Params, deptSR.Schema)
	rowsB, err := vDept.VerifyResult(plan.Query, f.role, resB)
	if err != nil {
		t.Fatal(err)
	}

	// Compare the sets of primary keys.
	keysA := make([]uint64, 0, len(rowsA))
	for _, r := range rowsA {
		keysA = append(keysA, r.Key)
	}
	pkIdx := deptSR.Schema.ColIndex(multiorder.PrimaryKeyCol)
	keysB := make([]uint64, 0, len(rowsB))
	for _, r := range rowsB {
		for _, d := range r.Values {
			if d.Col == pkIdx {
				keysB = append(keysB, uint64(d.Val.Int))
			}
		}
	}
	sort.Slice(keysA, func(i, j int) bool { return keysA[i] < keysA[j] })
	sort.Slice(keysB, func(i, j int) bool { return keysB[i] < keysB[j] })
	if len(keysA) == 0 {
		t.Fatal("degenerate test: no matching rows")
	}
	if len(keysA) != len(keysB) {
		t.Fatalf("plans disagree: %d vs %d rows", len(keysA), len(keysB))
	}
	for i := range keysA {
		if keysA[i] != keysB[i] {
			t.Fatalf("plans disagree at %d: %d vs %d", i, keysA[i], keysB[i])
		}
	}
}

func TestPlannerValidation(t *testing.T) {
	f := newPFix(t)
	if _, err := planner.Choose(f.tab, engine.Query{Relation: "Wrong"}); err == nil {
		t.Fatal("wrong relation accepted")
	}
	// No filters: primary ordering is the only candidate and wins.
	plan, err := planner.Choose(f.tab, engine.Query{Relation: "Emp"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Ordering != "Salary" {
		t.Fatalf("filterless query should use the primary ordering, got %s", plan.Ordering)
	}
	// Ne filters cannot become ranges; the primary still answers.
	plan, err = planner.Choose(f.tab, engine.Query{
		Relation: "Emp",
		Filters:  []engine.Filter{{Col: "Dept", Op: engine.OpNe, Val: relation.IntVal(1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Ordering != "Salary" {
		t.Fatalf("Ne filter should stay on primary, got %s", plan.Ordering)
	}
}
