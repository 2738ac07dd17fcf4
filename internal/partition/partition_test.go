package partition

import (
	"slices"
	"sync"
	"testing"

	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
	"vcqr/internal/workload"
)

var (
	keyOnce sync.Once
	testKey *sig.PrivateKey
)

func signKey(t testing.TB) *sig.PrivateKey {
	keyOnce.Do(func() {
		k, err := sig.Generate(sig.DefaultBits, nil)
		if err != nil {
			t.Fatalf("keygen: %v", err)
		}
		testKey = k
	})
	return testKey
}

func build(t *testing.T, n int, seed int64) (*hashx.Hasher, *sig.PrivateKey, *core.SignedRelation) {
	t.Helper()
	h := hashx.New()
	key := signKey(t)
	rel, err := workload.Uniform(workload.UniformConfig{
		N: n, L: 0, U: 1 << 24, PayloadSize: 8, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewParams(0, 1<<24, 2)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.Build(h, key, p, rel)
	if err != nil {
		t.Fatal(err)
	}
	return h, key, sr
}

func TestSplitShapes(t *testing.T) {
	h, key, sr := build(t, 97, 3)
	for _, k := range []int{1, 2, 4, 8} {
		set, err := Split(sr, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got := set.Spec.K(); got != k {
			t.Fatalf("k=%d: spec has %d shards", k, got)
		}
		owned := 0
		for i, sl := range set.Slices {
			if len(sl.Recs) < 3 {
				t.Fatalf("k=%d shard %d too small", k, i)
			}
			owned += len(sl.Recs) - 2
			lo, hi := set.Spec.Span(i)
			for j := 1; j < len(sl.Recs)-1; j++ {
				if kk := sl.Recs[j].Key(); kk < lo || kk > hi {
					t.Fatalf("k=%d shard %d key %d outside [%d,%d]", k, i, kk, lo, hi)
				}
			}
		}
		if owned != sr.Len() {
			t.Fatalf("k=%d: %d owned records, want %d", k, owned, sr.Len())
		}
		if err := set.Validate(h, key.Public()); err != nil {
			t.Fatalf("k=%d validate: %v", k, err)
		}
	}
}

func TestSplitKeepsDuplicatesTogether(t *testing.T) {
	h := hashx.New()
	key := signKey(t)
	// Many duplicates of one key straddling the natural cut position.
	rel := &relation.Relation{
		Schema: relation.Schema{Name: "Dup", KeyName: "K",
			Cols: []relation.Column{{Name: "V", Type: relation.TypeInt}}},
		L: 0, U: 1 << 16,
	}
	keys := []uint64{10, 20, 500, 500, 500, 500, 900, 1000}
	reps := map[uint64]uint64{}
	for _, k := range keys {
		rel.Tuples = append(rel.Tuples, relation.Tuple{
			Key: k, RowID: reps[k], Attrs: []relation.Value{relation.IntVal(int64(k))},
		})
		reps[k]++
	}
	p, err := core.NewParams(0, 1<<16, 2)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.Build(h, key, p, rel)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Split(sr, 2)
	if err != nil {
		t.Fatal(err)
	}
	// All four 500s must land in one shard.
	for i, sl := range set.Slices {
		seen := 0
		for j := 1; j < len(sl.Recs)-1; j++ {
			if sl.Recs[j].Key() == 500 {
				seen++
			}
		}
		if seen != 0 && seen != 4 {
			t.Fatalf("shard %d splits a duplicate run (%d of 4)", i, seen)
		}
	}
	if err := set.Validate(h, key.Public()); err != nil {
		t.Fatal(err)
	}
}

func TestShardForAndDecompose(t *testing.T) {
	spec := Spec{Relation: "R", Cuts: []uint64{0, 100, 200, 300, 1 << 20}}
	cases := []struct {
		key  uint64
		want int
	}{{1, 0}, {100, 0}, {101, 1}, {200, 1}, {201, 2}, {300, 2}, {301, 3}, {1<<20 - 1, 3}}
	for _, c := range cases {
		got, err := spec.ShardFor(c.key)
		if err != nil || got != c.want {
			t.Fatalf("ShardFor(%d) = %d, %v; want %d", c.key, got, err, c.want)
		}
	}
	if _, err := spec.ShardFor(0); err == nil {
		t.Fatal("ShardFor(L) accepted")
	}
	if _, err := spec.ShardFor(1 << 20); err == nil {
		t.Fatal("ShardFor(U) accepted")
	}

	sub := spec.Decompose(150, 250)
	if len(sub) != 2 || sub[0] != (SubRange{1, 150, 200}) || sub[1] != (SubRange{2, 201, 250}) {
		t.Fatalf("Decompose(150,250) = %v", sub)
	}
	sub = spec.Decompose(1, 1<<20-1)
	if len(sub) != 4 || sub[0].Lo != 1 || sub[3].Hi != 1<<20-1 {
		t.Fatalf("full-range decompose = %v", sub)
	}
	sub = spec.Decompose(105, 110)
	if len(sub) != 1 || sub[0] != (SubRange{1, 105, 110}) {
		t.Fatalf("single-shard decompose = %v", sub)
	}
	// A range that is exactly one cut key covers only the shard below it.
	sub = spec.Decompose(100, 100)
	if len(sub) != 1 || sub[0] != (SubRange{0, 100, 100}) {
		t.Fatalf("cut-key decompose = %v", sub)
	}
}

func TestHandoffOKAndStitch(t *testing.T) {
	h, key, sr := build(t, 40, 11)
	set, err := Split(sr, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(set.Slices); i++ {
		if !HandoffOK(set.Slices[i-1], set.Slices[i]) {
			t.Fatalf("hand-off %d-%d should agree", i-1, i)
		}
	}
	global, err := set.Stitch()
	if err != nil {
		t.Fatal(err)
	}
	if len(global.Recs) != len(sr.Recs) {
		t.Fatalf("stitched %d entries, want %d", len(global.Recs), len(sr.Recs))
	}
	if err := global.Validate(h, key.Public()); err != nil {
		t.Fatal(err)
	}

	// Tamper with one slice's interior record: the set must fail validation.
	bad := set.Slices[2].Clone()
	bad.Own(1).Tuple.Attrs[0] = relation.IntVal(424242)
	tampered := &Set{Spec: set.Spec, Slices: append([]*core.SignedRelation{}, set.Slices...)}
	tampered.Slices[2] = bad
	if err := tampered.Validate(h, key.Public()); err == nil {
		t.Fatal("tampered set validated")
	}

	// Desynchronize a hand-off mirror: must fail the hand-off check.
	bad2 := set.Slices[1].Clone()
	last := len(bad2.Recs) - 1
	bad2.Own(last).G[0] ^= 0xff
	tampered2 := &Set{Spec: set.Spec, Slices: append([]*core.SignedRelation{}, set.Slices...)}
	tampered2.Slices[1] = bad2
	if err := tampered2.Validate(h, key.Public()); err == nil {
		t.Fatal("desynchronized hand-off validated")
	}
}

func TestSplitErrors(t *testing.T) {
	_, _, sr := build(t, 6, 5)
	if _, err := Split(sr, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Split(sr, 7); err == nil {
		t.Fatal("k > n accepted")
	}
	if err := (Spec{Relation: "R", Cuts: []uint64{0, 5, 5, 10}}).Validate(); err == nil {
		t.Fatal("non-increasing cuts accepted")
	}
}

// TestSameSliceMatchesSliceDigest pins SameSlice to SliceDigest equality,
// field by field: an edit to anything SliceDigest hashes (kind, key, row
// id, G, signature — one byte of it) makes both say "different"; an
// edit to anything it does not hash leaves both saying "same"; and a
// slice one entry short differs.
func TestSameSliceMatchesSliceDigest(t *testing.T) {
	h, _, sr := build(t, 12, 5)
	set, err := Split(sr, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := set.Slices[1]
	edits := []struct {
		name   string
		hashed bool
		edit   func(r *core.SignedRecord)
	}{
		{"kind", true, func(r *core.SignedRecord) { r.Kind ^= 3 }},
		{"key", true, func(r *core.SignedRecord) { r.Tuple.Key++ }},
		{"row id", true, func(r *core.SignedRecord) { r.Tuple.RowID++ }},
		{"G", true, func(r *core.SignedRecord) { r.G = append(r.G[:len(r.G)-1:len(r.G)-1], r.G[len(r.G)-1]^1) }},
		{"signature", true, func(r *core.SignedRecord) { r.Sig = append(r.Sig[:len(r.Sig)-1:len(r.Sig)-1], r.Sig[len(r.Sig)-1]^1) }},
		{"attribute root", false, func(r *core.SignedRecord) { r.AttrRoot = hashx.Digest{1} }},
		{"attributes", false, func(r *core.SignedRecord) { r.Tuple.Attrs = nil }},
	}
	for _, e := range edits {
		for _, at := range []int{0, 2, len(base.Recs) - 1} {
			other := base.Clone()
			e.edit(other.Own(at))
			same, digestSame := SameSlice(base, other), SliceDigest(h, base).Equal(SliceDigest(h, other))
			if same != digestSame || same == e.hashed {
				t.Fatalf("%s edit at %d: SameSlice %v, digests equal %v", e.name, at, same, digestSame)
			}
		}
	}
	if !SameSlice(base, base.Clone()) {
		t.Fatal("a clone differs from its original")
	}
	short := base.Clone()
	short.Recs = short.Recs[:len(short.Recs)-1]
	if SameSlice(base, short) || SameSlice(short, base) {
		t.Fatal("a slice one entry short compares equal")
	}
}

// sliceDigestRef is SliceDigest as a plain fold, one Hasher.Hash per
// entry: the definition the resumable form must reproduce byte for byte.
func sliceDigestRef(h *hashx.Hasher, sr *core.SignedRelation) hashx.Digest {
	d := h.Hash([]byte("partition/slice-digest"))
	for i := range sr.Recs {
		rec := sr.Recs[i]
		d = h.Hash(d, []byte{byte(rec.Kind)}, hashx.U64Pair(rec.Key(), rec.Tuple.RowID), rec.G, rec.Sig)
	}
	return d
}

// TestSliceDigestFromMatchesSliceDigest: resumed from the running
// digests of a slice, at any entry up to the first one an edit changed,
// SliceDigestFrom yields the edited slice's SliceDigest and its running
// digests — for a re-sign, an insert, a delete and an edit at either
// edge — and leaves the running digests it read as they were. Resumed
// past the first change, it does not; a nil run or an out-of-range from
// hashes the whole slice.
func TestSliceDigestFromMatchesSliceDigest(t *testing.T) {
	h, _, sr := build(t, 12, 5)
	set, err := Split(sr, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := set.Slices[1]
	n := len(base.Recs)
	if d, run := SliceDigestFrom(h, base, nil, 0); !d.Equal(sliceDigestRef(h, base)) || len(run) != n*h.Size() ||
		!SliceDigest(h, base).Equal(d) {
		t.Fatal("SliceDigest differs from its definition")
	}
	resign := func(at int) func(*core.SignedRelation) {
		return func(s *core.SignedRelation) {
			s.Own(at).Sig[0] ^= 1
		}
	}
	edits := []struct {
		name string
		edit func(*core.SignedRelation)
	}{
		{"re-sign first", resign(0)},
		{"re-sign interior", resign(n / 2)},
		{"re-sign last", resign(n - 1)},
		{"insert", func(s *core.SignedRelation) {
			dup := s.Recs[2].Clone()
			dup.Tuple.RowID++
			s.Recs = slices.Insert(s.Recs, 3, &dup)
		}},
		{"delete", func(s *core.SignedRelation) { s.Recs = append(s.Recs[:2], s.Recs[3:]...) }},
		{"append", func(s *core.SignedRelation) { s.Recs = append(s.Recs, s.Recs[n-1]) }},
		{"truncate", func(s *core.SignedRelation) { s.Recs = s.Recs[:n-1] }},
	}
	_, run := SliceDigestFrom(h, base, nil, 0)
	kept := append([]byte(nil), run...)
	for _, e := range edits {
		next := base.Clone()
		e.edit(next)
		want := sliceDigestRef(h, next)
		_, wantRun := SliceDigestFrom(h, next, nil, 0)
		first := FirstDiff(base, next)
		for from := 0; from <= first; from++ {
			d, nextRun := SliceDigestFrom(h, next, run, from)
			if !d.Equal(want) || string(nextRun) != string(wantRun) {
				t.Fatalf("%s: resumed at %d (first difference %d): digest differs from SliceDigest", e.name, from, first)
			}
		}
		if first < n && first < len(next.Recs) {
			if d, _ := SliceDigestFrom(h, next, run, first+1); d.Equal(want) {
				t.Fatalf("%s: resumed past the first difference (%d) and still matched", e.name, first)
			}
		}
		for _, from := range []int{-1, len(next.Recs) + 5} {
			if d, _ := SliceDigestFrom(h, next, nil, from); !d.Equal(want) {
				t.Fatalf("%s: nil run at from %d does not hash the whole slice", e.name, from)
			}
		}
		if string(run) != string(kept) {
			t.Fatalf("%s: the running digests read were written", e.name)
		}
	}
}
