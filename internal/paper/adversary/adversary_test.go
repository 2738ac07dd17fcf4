package adversary_test

import (
	"sync"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/paper/adversary"
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

// TestAttackMatrix runs every adversary attack against every applicable
// query and checks the verifier rejects all of them — the E8 experiment.
func TestAttackMatrix(t *testing.T) {
	f := newFixture(t)
	adv := adversary.New(f.pub, f.h, signKey(t).Public())
	// A proper sub-range of the table (3 of 5 records) so that the
	// replay attack's stale whole-table aggregate genuinely differs.
	baseQ := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 9999}
	filterQ := engine.Query{
		Relation: "Emp", KeyLo: 1, KeyHi: 30000,
		Filters: []engine.Filter{{Col: "Dept", Op: engine.OpEq, Val: relation.IntVal(1)}},
	}
	for _, attack := range adversary.Attacks() {
		t.Run(attack, func(t *testing.T) {
			q := baseQ
			role := "manager"
			if attack == adversary.AttackHideAsFiltered {
				q = filterQ
			}
			if attack == adversary.AttackWidenRewrite {
				q = engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 30000}
				role = "exec"
			}
			res, err := adv.Execute(role, q, attack)
			if err != nil {
				t.Fatalf("adversary failed to mount %s: %v", attack, err)
			}
			if _, err := f.verifier(t).VerifyResult(q, f.roles[role], res); err == nil {
				t.Fatalf("attack %s was NOT detected", attack)
			}
		})
	}
}

// TestAttacksDetectedOverWholeTable repeats the detectable attacks over
// the whole table, so the omitted or reordered records include both ends
// of the relation.
func TestAttacksDetectedOverWholeTable(t *testing.T) {
	f := newFixture(t)
	adv := adversary.New(f.pub, f.h, signKey(t).Public())
	q := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 30000}
	for _, attack := range []string{
		adversary.AttackOmitFirst, adversary.AttackOmitLast, adversary.AttackOmitMiddle,
		adversary.AttackFakeEmpty, adversary.AttackTamperValue, adversary.AttackSwapValues,
	} {
		res, err := adv.Execute("manager", q, attack)
		if err != nil {
			t.Fatalf("%s: %v", attack, err)
		}
		if _, err := f.verifier(t).VerifyResult(q, f.roles["manager"], res); err == nil {
			t.Fatalf("attack %s not detected over the whole table", attack)
		}
	}
}
