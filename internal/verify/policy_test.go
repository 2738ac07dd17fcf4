package verify_test

import (
	"errors"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
	"vcqr/internal/verify"
)

// policyFix is four rows under two roles: key 5 twice with equal values
// (a DISTINCT duplicate), key 7 hidden from the viewer, key 9.
type policyFix struct {
	pub   *engine.Publisher
	v     *verify.Verifier
	roles map[string]accessctl.Role
}

func newPolicyFix(t *testing.T) *policyFix {
	t.Helper()
	h := hashx.New()
	schema := relation.Schema{Name: "P", KeyName: "K", Cols: []relation.Column{
		{Name: "A", Type: relation.TypeInt}, {Name: "vis", Type: relation.TypeBool},
	}}
	rel, err := relation.New(schema, 0, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		key uint64
		a   int64
		vis bool
	}{{5, 1, true}, {5, 1, true}, {7, 2, false}, {9, 3, true}} {
		if _, err := rel.Insert(relation.Tuple{Key: r.key, Attrs: []relation.Value{relation.IntVal(r.a), relation.BoolVal(r.vis)}}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := core.NewParams(0, 1<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.Build(h, signKey(t), p, rel)
	if err != nil {
		t.Fatal(err)
	}
	roles := map[string]accessctl.Role{
		"all":    {Name: "all"},
		"viewer": {Name: "viewer", Cols: []string{"A", "vis"}, VisibilityCol: "vis"},
	}
	pub := engine.NewPublisher(h, signKey(t).Public(), accessctl.NewPolicy(roles["all"], roles["viewer"]))
	if err := pub.AddRelation(sr, false); err != nil {
		t.Fatal(err)
	}
	return &policyFix{pub: pub, v: verify.New(h, signKey(t).Public(), p, schema), roles: roles}
}

func (f *policyFix) execute(t *testing.T, role string, q engine.Query) *engine.Result {
	t.Helper()
	res, err := f.pub.Execute(role, q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDistinctIsElidedByTheVerifier: under DISTINCT the publisher ships
// every covered record whole and the verifier releases each distinct row
// once. A verifier that let the publisher mark an entry as an elided
// duplicate, taken on its g alone, let it drop any distinct row by
// calling it one; that entry mode is gone, and a stream using it is
// refused.
func TestDistinctIsElidedByTheVerifier(t *testing.T) {
	f := newPolicyFix(t)
	q := engine.Query{Relation: "P", Project: []string{"A"}, Distinct: true}
	res := f.execute(t, "all", q)
	rows, err := f.v.VerifyResult(q, f.roles["all"], res)
	if err != nil || len(rows) != 3 || len(res.VO.Entries) != 4 {
		t.Fatalf("honest DISTINCT result: %d entries, %d rows, %v; want 4 entries, 3 rows", len(res.VO.Entries), len(rows), err)
	}
	res.VO.Entries[2].Mode = 3 // format 0's elided duplicate, on key 7
	if rows, err := f.v.VerifyResult(q, f.roles["all"], res); !errors.Is(err, verify.ErrEntry) {
		t.Fatalf("distinct row marked elided: %d rows, %v; want ErrEntry", len(rows), err)
	}
}

// TestHiddenRecordCannotPoseAsResult: a role with a record-level policy
// must not receive a row its visibility column hides, even when the
// query does not project that column. The rewrite adds the column to the
// projection, so every result row proves its own visibility.
func TestHiddenRecordCannotPoseAsResult(t *testing.T) {
	f := newPolicyFix(t)
	q := engine.Query{Relation: "P", Project: []string{"A"}}
	honest := f.execute(t, "viewer", q)
	rows, err := f.v.VerifyResult(q, f.roles["viewer"], honest)
	if err != nil || len(rows) != 3 {
		t.Fatalf("honest viewer result: %d rows, %v; want 3", len(rows), err)
	}
	for _, project := range [][]string{{"A"}, {"A", "vis"}} {
		res := f.execute(t, "viewer", q)
		all := f.execute(t, "all", engine.Query{Relation: "P", Project: project})
		if res.VO.Entries[2].Mode != engine.EntryFilteredHidden || all.VO.Entries[2].Key != 7 {
			t.Fatal("fixture: entry 2 is not key 7 hidden from the viewer")
		}
		res.VO.Entries[2] = all.VO.Entries[2] // key 7 served to the viewer as a result
		if rows, err := f.v.VerifyResult(q, f.roles["viewer"], res); err == nil {
			t.Fatalf("projecting %v: hidden key 7 released to the viewer among %d rows", project, len(rows))
		}
	}
}

// TestHiddenEntryRefusesKey: a Section 4.4 Case 2 entry keeps its key
// hidden, so the publisher never sets one. The key binds nothing there
// (the key leaf travels as a hidden digest), which is why a non-zero Key
// is refused by name rather than ignored.
func TestHiddenEntryRefusesKey(t *testing.T) {
	f := newPolicyFix(t)
	q := engine.Query{Relation: "P", Project: []string{"A"}}
	res := f.execute(t, "viewer", q)
	if res.VO.Entries[2].Mode != engine.EntryFilteredHidden || res.VO.Entries[2].Key != 0 {
		t.Fatal("fixture: entry 2 is not a keyless hidden entry")
	}
	res.VO.Entries[2].Key = 7
	if rows, err := f.v.VerifyResult(q, f.roles["viewer"], res); !errors.Is(err, verify.ErrEntry) {
		t.Fatalf("hidden entry carrying key 7: %d rows, %v; want ErrEntry", len(rows), err)
	}
}

// TestFilterRewriteMustMatch: the publisher's effective query must carry
// the user's own filters. A verifier that compared only their number let
// a publisher tighten a filter and pass the rows it then failed off as
// Section 4.4 Case 1 entries.
func TestFilterRewriteMustMatch(t *testing.T) {
	f := newPolicyFix(t)
	q := engine.Query{Relation: "P", Filters: []engine.Filter{{Col: "A", Op: engine.OpLe, Val: relation.IntVal(2)}}}
	tighter := q
	tighter.Filters = []engine.Filter{{Col: "A", Op: engine.OpLe, Val: relation.IntVal(0)}}
	res := f.execute(t, "all", tighter)
	if rows, err := f.v.VerifyResult(q, f.roles["all"], res); !errors.Is(err, verify.ErrRewriteMismatch) {
		t.Fatalf("tightened filter: %d rows, %v; want ErrRewriteMismatch", len(rows), err)
	}
}
