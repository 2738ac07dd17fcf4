package btree

import (
	"math/rand"
	"testing"
)

func TestNewOrderValidation(t *testing.T) {
	if _, err := New(2); err != ErrOrder {
		t.Errorf("order 2: %v", err)
	}
	tr, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatal("fresh tree shape wrong")
	}
}

func TestInsertGetRoundTrip(t *testing.T) {
	tr, _ := New(4)
	for i := uint64(0); i < 100; i++ {
		if err := tr.Insert(Entry{Key: i * 10, RowID: 0, Sig: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := uint64(0); i < 100; i++ {
		sig, err := tr.Get(i*10, 0)
		if err != nil {
			t.Fatalf("Get(%d): %v", i*10, err)
		}
		if sig[0] != byte(i) {
			t.Fatalf("Get(%d) wrong payload", i*10)
		}
	}
	if _, err := tr.Get(5, 0); err != ErrNotFound {
		t.Fatal("missing entry found")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateRejected(t *testing.T) {
	tr, _ := New(4)
	if err := tr.Insert(Entry{Key: 1, RowID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(Entry{Key: 1, RowID: 2}); err == nil {
		t.Fatal("duplicate accepted")
	}
	// Same key, different rowid is fine (replica numbers).
	if err := tr.Insert(Entry{Key: 1, RowID: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomInsertDeleteInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr, _ := New(6)
	live := map[uint64]bool{}
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(5000))
		if live[k] {
			if err := tr.Delete(k, 0); err != nil {
				t.Fatalf("delete %d: %v", k, err)
			}
			delete(live, k)
		} else {
			if err := tr.Insert(Entry{Key: k, RowID: 0, Sig: []byte{1}}); err != nil {
				t.Fatalf("insert %d: %v", k, err)
			}
			live[k] = true
		}
		if i%500 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len %d != live %d", tr.Len(), len(live))
	}
	for k := range live {
		if _, err := tr.Get(k, 0); err != nil {
			t.Fatalf("live key %d missing", k)
		}
	}
}

func TestRangeScan(t *testing.T) {
	tr, _ := New(5)
	for i := uint64(1); i <= 50; i++ {
		tr.Insert(Entry{Key: i * 2}) // even keys 2..100
	}
	var got []uint64
	tr.Range(10, 30, func(e Entry) bool {
		got = append(got, e.Key)
		return true
	})
	want := []uint64{10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30}
	if len(got) != len(want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range = %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	tr.Range(0, 1000, func(e Entry) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop scanned %d", n)
	}
}

func TestUpdateSigInPlace(t *testing.T) {
	tr, _ := New(4)
	for i := uint64(0); i < 20; i++ {
		tr.Insert(Entry{Key: i, Sig: []byte{0}})
	}
	if err := tr.UpdateSig(7, 0, []byte{42}); err != nil {
		t.Fatal(err)
	}
	sig, err := tr.Get(7, 0)
	if err != nil || sig[0] != 42 {
		t.Fatalf("updated sig not visible: %v %v", sig, err)
	}
	if err := tr.UpdateSig(999, 0, nil); err != ErrNotFound {
		t.Fatal("update of missing entry succeeded")
	}
}

// TestLeafSpan is the Section 6.3 claim: the three signatures affected by
// a record update live in at most two adjoining leaves, and in one leaf
// most of the time.
func TestLeafSpan(t *testing.T) {
	tr, _ := New(64)
	for i := uint64(0); i < 10000; i++ {
		tr.Insert(Entry{Key: i, Sig: []byte{1}})
	}
	ones, twos := 0, 0
	for i := uint64(0); i < 10000; i += 7 {
		span, err := tr.LeafSpan(i, 0)
		if err != nil {
			t.Fatal(err)
		}
		switch span {
		case 1:
			ones++
		case 2:
			twos++
		default:
			t.Fatalf("LeafSpan(%d) = %d; must never exceed 2", i, span)
		}
	}
	if ones <= twos {
		t.Fatalf("expected span 1 to dominate: ones=%d twos=%d", ones, twos)
	}
}

func TestHeightGrowth(t *testing.T) {
	tr, _ := New(4)
	if tr.Height() != 1 {
		t.Fatal("empty tree height")
	}
	for i := uint64(0); i < 1000; i++ {
		tr.Insert(Entry{Key: i})
	}
	if h := tr.Height(); h < 4 {
		t.Fatalf("height %d suspiciously small for 1000 entries at order 4", h)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteToEmpty(t *testing.T) {
	tr, _ := New(4)
	for i := uint64(0); i < 50; i++ {
		tr.Insert(Entry{Key: i})
	}
	for i := uint64(0); i < 50; i++ {
		if err := tr.Delete(i, 0); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Tree remains usable.
	if err := tr.Insert(Entry{Key: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Get(7, 0); err != nil {
		t.Fatal(err)
	}
}

func TestDescendingInsert(t *testing.T) {
	tr, _ := New(4)
	for i := 1000; i > 0; i-- {
		if err := tr.Insert(Entry{Key: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	tr.Range(1, 5, func(e Entry) bool { got = append(got, e.Key); return true })
	if len(got) != 5 || got[0] != 1 || got[4] != 5 {
		t.Fatalf("Range after descending insert = %v", got)
	}
}
