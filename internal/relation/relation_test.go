package relation

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func empSchema() Schema {
	return Schema{
		Name:    "Emp",
		KeyName: "Salary",
		Cols: []Column{
			{Name: "ID", Type: TypeInt},
			{Name: "Name", Type: TypeString},
			{Name: "Dept", Type: TypeInt},
			{Name: "Photo", Type: TypeBytes},
		},
	}
}

func empTuple(salary uint64, id int64, name string, dept int64) Tuple {
	return Tuple{Key: salary, Attrs: []Value{
		IntVal(id), StringVal(name), IntVal(dept), BytesVal([]byte{0xde, 0xad}),
	}}
}

func TestValueEncodeInjective(t *testing.T) {
	vals := []Value{
		IntVal(0), IntVal(1), IntVal(-1), IntVal(256),
		FloatVal(0), FloatVal(1.5), FloatVal(-1.5),
		StringVal(""), StringVal("a"), StringVal("ab"),
		BytesVal(nil), BytesVal([]byte{0}), BytesVal([]byte{0, 0}),
		BoolVal(false), BoolVal(true),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := string(v.Encode())
		if prev, ok := seen[k]; ok {
			t.Errorf("encodings collide: %v and %v", prev, v)
		}
		seen[k] = v
	}
}

func TestValueEncodeTypeTagged(t *testing.T) {
	// An int 1 and a bool true must encode differently even if payloads
	// could be confused.
	if bytes.Equal(IntVal(1).Encode(), BoolVal(true).Encode()) {
		t.Fatal("int and bool encodings collide")
	}
	// A string and equal bytes must differ by tag.
	if bytes.Equal(StringVal("xy").Encode(), BytesVal([]byte("xy")).Encode()) {
		t.Fatal("string and bytes encodings collide")
	}
}

func TestValueEqual(t *testing.T) {
	if !BytesVal([]byte{1, 2}).Equal(BytesVal([]byte{1, 2})) {
		t.Error("equal byte values must compare equal")
	}
	if IntVal(1).Equal(FloatVal(1)) {
		t.Error("different types must not compare equal")
	}
	if StringVal("a").Equal(StringVal("b")) {
		t.Error("different strings must not compare equal")
	}
}

func TestValueSizeMatchesEncoding(t *testing.T) {
	f := func(s string, b []byte, i int64) bool {
		for _, v := range []Value{StringVal(s), BytesVal(b), IntVal(i)} {
			if v.Size() != len(v.Encode()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := empSchema().Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := empSchema()
	bad.Cols = append(bad.Cols, Column{Name: "Dept", Type: TypeInt})
	if bad.Validate() == nil {
		t.Error("duplicate column accepted")
	}
	bad2 := empSchema()
	bad2.Cols = append(bad2.Cols, Column{Name: "Salary", Type: TypeInt})
	if bad2.Validate() == nil {
		t.Error("column shadowing key accepted")
	}
	bad3 := empSchema()
	bad3.KeyName = ""
	if bad3.Validate() == nil {
		t.Error("empty key name accepted")
	}
}

func TestSchemaColIndex(t *testing.T) {
	s := empSchema()
	if s.ColIndex("Dept") != 2 {
		t.Errorf("ColIndex(Dept) = %d, want 2", s.ColIndex("Dept"))
	}
	if s.ColIndex("nope") != -1 {
		t.Error("missing column must return -1")
	}
}

func TestNewRejectsBadDomain(t *testing.T) {
	if _, err := New(empSchema(), 10, 10); err != ErrEmptyDomain {
		t.Errorf("U==L: got %v", err)
	}
	if _, err := New(empSchema(), 10, 11); err != ErrEmptyDomain {
		t.Errorf("U==L+1 (no interior): got %v", err)
	}
	if _, err := New(empSchema(), 10, 12); err != nil {
		t.Errorf("U==L+2 should be fine: %v", err)
	}
}

func TestInsertKeepsSorted(t *testing.T) {
	r, err := New(empSchema(), 0, 100000)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 1 table, inserted out of order.
	for _, s := range []uint64{12100, 2000, 25000, 3500, 8010} {
		if _, err := r.Insert(empTuple(s, int64(s), "x", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []uint64{2000, 3500, 8010, 12100, 25000}
	for i, k := range want {
		if r.Tuples[i].Key != k {
			t.Fatalf("position %d: key %d, want %d", i, r.Tuples[i].Key, k)
		}
	}
}

func TestInsertDomainEnforced(t *testing.T) {
	r, _ := New(empSchema(), 10, 100)
	for _, k := range []uint64{10, 100, 5, 200} {
		if _, err := r.Insert(empTuple(k, 1, "x", 1)); err == nil {
			t.Errorf("key %d outside (10,100) accepted", k)
		}
	}
	if _, err := r.Insert(empTuple(11, 1, "x", 1)); err != nil {
		t.Errorf("key 11 rejected: %v", err)
	}
	if _, err := r.Insert(empTuple(99, 1, "x", 1)); err != nil {
		t.Errorf("key 99 rejected: %v", err)
	}
}

func TestInsertArityEnforced(t *testing.T) {
	r, _ := New(empSchema(), 0, 1000)
	if _, err := r.Insert(Tuple{Key: 5, Attrs: []Value{IntVal(1)}}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestDuplicateKeysGetReplicaNumbers(t *testing.T) {
	r, _ := New(empSchema(), 0, 1000)
	var ids []uint64
	for i := 0; i < 4; i++ {
		id, err := r.Insert(empTuple(42, int64(i), "dup", 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	seen := map[uint64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("replica numbers not unique: %v", ids)
		}
		seen[id] = true
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaReuseAfterDelete(t *testing.T) {
	// Deleting and re-inserting keeps (Key,RowID) unique.
	r, _ := New(empSchema(), 0, 1000)
	r.Insert(empTuple(42, 0, "a", 1))
	r.Insert(empTuple(42, 1, "b", 1))
	if !r.Delete(42, 0) {
		t.Fatal("delete failed")
	}
	id, err := r.Insert(empTuple(42, 2, "c", 1))
	if err != nil {
		t.Fatal(err)
	}
	if id == 1 {
		t.Fatal("new replica collided with surviving tuple")
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFindAndDelete(t *testing.T) {
	r, _ := New(empSchema(), 0, 1000)
	r.Insert(empTuple(10, 1, "a", 1))
	r.Insert(empTuple(20, 2, "b", 1))
	if r.Find(10, 0) < 0 {
		t.Fatal("Find missed existing tuple")
	}
	if r.Find(15, 0) != -1 {
		t.Fatal("Find invented a tuple")
	}
	if !r.Delete(10, 0) {
		t.Fatal("Delete missed existing tuple")
	}
	if r.Delete(10, 0) {
		t.Fatal("Delete repeated")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestRangeIndices(t *testing.T) {
	r, _ := New(empSchema(), 0, 100000)
	for _, s := range []uint64{2000, 3500, 8010, 12100, 25000} {
		r.Insert(empTuple(s, 1, "x", 1))
	}
	cases := []struct {
		lo, hi uint64
		a, b   int
	}{
		{0 + 1, 9999, 0, 3},  // the Figure 1 query: Salary < 10000
		{3500, 3500, 1, 2},   // point query
		{4000, 8000, 2, 2},   // empty interior range
		{1, 99999, 0, 5},     // whole table
		{30000, 99999, 5, 5}, // beyond the last key
		{1, 1999, 0, 0},      // before the first key
	}
	for _, c := range cases {
		a, b := r.RangeIndices(c.lo, c.hi)
		if a != c.a || b != c.b {
			t.Errorf("RangeIndices(%d,%d) = (%d,%d), want (%d,%d)", c.lo, c.hi, a, b, c.a, c.b)
		}
	}
}

func TestTupleCloneIndependent(t *testing.T) {
	orig := empTuple(5, 1, "n", 2)
	cl := orig.Clone()
	cl.Attrs[1] = StringVal("changed")
	cl.Attrs[3].Bytes[0] = 0xff
	if orig.Attrs[1].Str != "n" {
		t.Fatal("clone aliased string attr")
	}
	if orig.Attrs[3].Bytes[0] == 0xff {
		t.Fatal("clone aliased byte attr")
	}
}

func TestTupleSize(t *testing.T) {
	tp := empTuple(5, 1, "abc", 2)
	want := 8 // key
	for _, a := range tp.Attrs {
		want += a.Size()
	}
	if tp.Size() != want {
		t.Fatalf("Size = %d, want %d", tp.Size(), want)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	r, _ := New(empSchema(), 0, 1000)
	r.Insert(empTuple(10, 1, "a", 1))
	r.Insert(empTuple(20, 2, "b", 1))
	r.Tuples[0], r.Tuples[1] = r.Tuples[1], r.Tuples[0]
	if r.Validate() == nil {
		t.Fatal("unsorted relation validated")
	}
	r.Tuples[0], r.Tuples[1] = r.Tuples[1], r.Tuples[0]
	r.Tuples[1].Key = 10
	r.Tuples[1].RowID = 0
	if r.Validate() == nil {
		t.Fatal("duplicate (Key,RowID) validated")
	}
}

func TestRandomisedInsertInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	r, _ := New(empSchema(), 0, 1<<20)
	for i := 0; i < 500; i++ {
		k := uint64(rng.Intn(1<<20-2)) + 1
		if _, err := r.Insert(empTuple(k, int64(i), "r", 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		idx := rng.Intn(r.Len())
		tup := r.Tuples[idx]
		if !r.Delete(tup.Key, tup.RowID) {
			t.Fatal("delete of existing tuple failed")
		}
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Find returns the index of the tuple with (key, rowID), or -1.
func (r *Relation) Find(key, rowID uint64) int {
	i := sort.Search(len(r.Tuples), func(i int) bool {
		ti := r.Tuples[i]
		return ti.Key > key || (ti.Key == key && ti.RowID >= rowID)
	})
	if i < len(r.Tuples) && r.Tuples[i].Key == key && r.Tuples[i].RowID == rowID {
		return i
	}
	return -1
}
