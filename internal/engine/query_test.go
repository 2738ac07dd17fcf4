package engine

import (
	"testing"

	"vcqr/internal/relation"
)

func TestFilterEvalInt(t *testing.T) {
	cases := []struct {
		op   Op
		val  int64
		arg  int64
		want bool
	}{
		{OpEq, 5, 5, true}, {OpEq, 5, 6, false},
		{OpNe, 5, 6, true}, {OpNe, 5, 5, false},
		{OpLt, 5, 4, true}, {OpLt, 5, 5, false},
		{OpLe, 5, 5, true}, {OpLe, 5, 6, false},
		{OpGt, 5, 6, true}, {OpGt, 5, 5, false},
		{OpGe, 5, 5, true}, {OpGe, 5, 4, false},
	}
	for _, c := range cases {
		f := Filter{Col: "x", Op: c.op, Val: relation.IntVal(c.val)}
		if got := f.Eval(relation.IntVal(c.arg)); got != c.want {
			t.Errorf("%d %v %d = %v, want %v", c.arg, c.op, c.val, got, c.want)
		}
	}
}

func TestFilterEvalStringAndFloat(t *testing.T) {
	f := Filter{Col: "s", Op: OpLt, Val: relation.StringVal("m")}
	if !f.Eval(relation.StringVal("a")) || f.Eval(relation.StringVal("z")) {
		t.Error("string comparison broken")
	}
	g := Filter{Col: "f", Op: OpGe, Val: relation.FloatVal(1.5)}
	if !g.Eval(relation.FloatVal(2.0)) || g.Eval(relation.FloatVal(1.0)) {
		t.Error("float comparison broken")
	}
}

func TestFilterEvalTypeMismatch(t *testing.T) {
	// Ordered comparison across types evaluates to false (conservative).
	f := Filter{Col: "x", Op: OpLt, Val: relation.IntVal(5)}
	if f.Eval(relation.StringVal("3")) {
		t.Error("cross-type ordered comparison must be false")
	}
	// Equality across types is simply unequal.
	e := Filter{Col: "x", Op: OpEq, Val: relation.IntVal(1)}
	if e.Eval(relation.BoolVal(true)) {
		t.Error("cross-type equality must be false")
	}
	// Ne across types is true (they are not equal).
	n := Filter{Col: "x", Op: OpNe, Val: relation.IntVal(1)}
	if !n.Eval(relation.BoolVal(true)) {
		t.Error("cross-type inequality must be true")
	}
	// Ordered comparison on unordered types (bytes) is false.
	b := Filter{Col: "x", Op: OpLt, Val: relation.BytesVal([]byte{1})}
	if b.Eval(relation.BytesVal([]byte{0})) {
		t.Error("bytes are unordered; comparison must be false")
	}
}

func TestOpStrings(t *testing.T) {
	want := map[Op]string{OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), s)
		}
	}
	if Op(99).String() != "?" {
		t.Error("unknown op must print ?")
	}
	modes := map[EntryMode]string{
		EntryResult: "result", EntryFilteredVisible: "filtered-visible",
		EntryFilteredHidden: "filtered-hidden", EntryFilteredHidden + 1: "?",
	}
	for m, s := range modes {
		if m.String() != s {
			t.Errorf("EntryMode(%d).String() = %q, want %q", m, m.String(), s)
		}
	}
}

func TestQueryPasses(t *testing.T) {
	schema := relation.Schema{
		Name: "T", KeyName: "K",
		Cols: []relation.Column{
			{Name: "A", Type: relation.TypeInt},
			{Name: "B", Type: relation.TypeString},
		},
	}
	tup := relation.Tuple{Key: 1, Attrs: []relation.Value{
		relation.IntVal(7), relation.StringVal("x"),
	}}
	q := Query{Filters: []Filter{
		{Col: "A", Op: OpGe, Val: relation.IntVal(5)},
		{Col: "B", Op: OpEq, Val: relation.StringVal("x")},
	}}
	if !q.passes(schema, tup) {
		t.Error("conjunction should pass")
	}
	q.Filters[1].Val = relation.StringVal("y")
	if q.passes(schema, tup) {
		t.Error("failed conjunct should fail the conjunction")
	}
}
