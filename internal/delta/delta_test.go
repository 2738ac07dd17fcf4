package delta_test

import (
	"errors"
	"sync"
	"testing"

	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
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

func build(t testing.TB, n int) (*hashx.Hasher, *core.SignedRelation) {
	t.Helper()
	h := hashx.New()
	rel, err := workload.Employees(workload.EmployeeConfig{
		N: n, L: 0, U: 1 << 20, PhotoSize: 8, Seed: 51,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewParams(0, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.Build(h, signKey(t), p, rel)
	if err != nil {
		t.Fatal(err)
	}
	return h, sr
}

func someAttrs(sr *core.SignedRelation) []relation.Value {
	return sr.Recs[1].Tuple.Attrs
}

func TestDiffEmpty(t *testing.T) {
	_, sr := build(t, 10)
	d := delta.Diff(sr, sr)
	if d.Size() != 0 {
		t.Fatalf("self-diff has %d ops", d.Size())
	}
}

func TestUpdateSyncRoundTrip(t *testing.T) {
	h, ownerCopy := build(t, 20)
	publisherCopy := ownerCopy.Clone()

	// Owner updates one record: 3 re-signs -> 3 upserts in the delta.
	target := ownerCopy.Recs[5]
	if _, err := ownerCopy.UpdateAttrs(h, signKey(t), target.Key(), target.Tuple.RowID, someAttrs(ownerCopy)); err != nil {
		t.Fatal(err)
	}
	d := delta.Diff(publisherCopy, ownerCopy)
	if d.Size() != 3 {
		t.Fatalf("update delta has %d ops, want 3 (the Section 6.3 locality)", d.Size())
	}
	if err := delta.Apply(h, signKey(t).Public(), publisherCopy, d); err != nil {
		t.Fatal(err)
	}
	if err := publisherCopy.Validate(h, signKey(t).Public()); err != nil {
		t.Fatalf("publisher copy invalid after delta: %v", err)
	}
}

func TestInsertAndDeleteSync(t *testing.T) {
	h, ownerCopy := build(t, 20)
	publisherCopy := ownerCopy.Clone()

	if _, err := ownerCopy.Insert(h, signKey(t), relation.Tuple{Key: 777, Attrs: someAttrs(ownerCopy)}); err != nil {
		t.Fatal(err)
	}
	victim := ownerCopy.Recs[10]
	if _, err := ownerCopy.Delete(h, signKey(t), victim.Key(), victim.Tuple.RowID); err != nil {
		t.Fatal(err)
	}
	d := delta.Diff(publisherCopy, ownerCopy)
	// Insert: new record + 2 neighbours; delete: 2 neighbours + 1 delete.
	// Neighbour sets may overlap, so just bound it.
	if d.Size() == 0 || d.Size() > 7 {
		t.Fatalf("delta size = %d, expected small and positive", d.Size())
	}
	if err := delta.Apply(h, signKey(t).Public(), publisherCopy, d); err != nil {
		t.Fatal(err)
	}
	if err := publisherCopy.Validate(h, signKey(t).Public()); err != nil {
		t.Fatalf("publisher copy invalid: %v", err)
	}
	if publisherCopy.Len() != ownerCopy.Len() {
		t.Fatalf("lengths diverged: %d vs %d", publisherCopy.Len(), ownerCopy.Len())
	}
}

func TestDeltaMuchSmallerThanSnapshot(t *testing.T) {
	h, ownerCopy := build(t, 200)
	publisherCopy := ownerCopy.Clone()
	target := ownerCopy.Recs[50]
	if _, err := ownerCopy.UpdateAttrs(h, signKey(t), target.Key(), target.Tuple.RowID, someAttrs(ownerCopy)); err != nil {
		t.Fatal(err)
	}
	d := delta.Diff(publisherCopy, ownerCopy)
	if d.Size() >= ownerCopy.Len()/10 {
		t.Fatalf("delta %d ops for a 1-record update over %d records", d.Size(), ownerCopy.Len())
	}
}

func TestApplyRejectsForgedUpsert(t *testing.T) {
	h, ownerCopy := build(t, 20)
	publisherCopy := ownerCopy.Clone()
	target := ownerCopy.Recs[5]
	if _, err := ownerCopy.UpdateAttrs(h, signKey(t), target.Key(), target.Tuple.RowID, someAttrs(ownerCopy)); err != nil {
		t.Fatal(err)
	}
	d := delta.Diff(publisherCopy, ownerCopy)
	// Tamper with one upsert's tuple: digest check must fail.
	for i := range d.Ops {
		if d.Ops[i].Kind == delta.OpUpsert {
			d.Ops[i].Rec.Tuple.Attrs[1] = relation.StringVal("forged")
			break
		}
	}
	if err := delta.Apply(h, signKey(t).Public(), publisherCopy, d); !errors.Is(err, delta.ErrValidation) {
		t.Fatalf("forged upsert: %v", err)
	}
	// The failed apply must not have mutated the publisher copy.
	if err := publisherCopy.Validate(h, signKey(t).Public()); err != nil {
		t.Fatalf("publisher copy corrupted by failed apply: %v", err)
	}
}

func TestApplyRejectsUnsignedInsert(t *testing.T) {
	h, ownerCopy := build(t, 20)
	publisherCopy := ownerCopy.Clone()
	// An adversary (or corrupted owner feed) inserts a record with a
	// stolen signature from another record.
	forged := ownerCopy.Recs[3].Clone()
	forged.Tuple.Key = 999
	d := delta.Delta{Relation: ownerCopy.Schema.Name, Ops: []delta.Op{
		{Kind: delta.OpUpsert, Key: 999, RowID: forged.Tuple.RowID, Rec: forged},
	}}
	if err := delta.Apply(h, signKey(t).Public(), publisherCopy, d); !errors.Is(err, delta.ErrValidation) {
		t.Fatalf("forged insert: %v", err)
	}
}

func TestApplyRejectsWrongRelation(t *testing.T) {
	h, sr := build(t, 5)
	d := delta.Delta{Relation: "Other"}
	if err := delta.Apply(h, signKey(t).Public(), sr, d); !errors.Is(err, delta.ErrRelationName) {
		t.Fatalf("wrong relation: %v", err)
	}
}

func TestApplyRejectsDeleteOfMissing(t *testing.T) {
	h, sr := build(t, 5)
	d := delta.Delta{Relation: sr.Schema.Name, Ops: []delta.Op{
		{Kind: delta.OpDelete, Key: 31337, RowID: 0},
	}}
	if err := delta.Apply(h, signKey(t).Public(), sr, d); !errors.Is(err, delta.ErrBadOp) {
		t.Fatalf("missing delete: %v", err)
	}
}

func TestRepeatedSyncConverges(t *testing.T) {
	h, ownerCopy := build(t, 40)
	publisherCopy := ownerCopy.Clone()
	for round := 0; round < 5; round++ {
		before := ownerCopy.Clone()
		switch round % 3 {
		case 0:
			if _, err := ownerCopy.Insert(h, signKey(t), relation.Tuple{
				Key: uint64(1000 + round*17), Attrs: someAttrs(ownerCopy),
			}); err != nil {
				t.Fatal(err)
			}
		case 1:
			rec := ownerCopy.Recs[1+round]
			if _, err := ownerCopy.UpdateAttrs(h, signKey(t), rec.Key(), rec.Tuple.RowID, someAttrs(ownerCopy)); err != nil {
				t.Fatal(err)
			}
		case 2:
			rec := ownerCopy.Recs[ownerCopy.Len()]
			if _, err := ownerCopy.Delete(h, signKey(t), rec.Key(), rec.Tuple.RowID); err != nil {
				t.Fatal(err)
			}
		}
		d := delta.Diff(before, ownerCopy)
		if err := delta.Apply(h, signKey(t).Public(), publisherCopy, d); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if err := publisherCopy.Validate(h, signKey(t).Public()); err != nil {
		t.Fatalf("diverged after repeated sync: %v", err)
	}
	// Final convergence: a diff between the copies must be empty.
	if d := delta.Diff(publisherCopy, ownerCopy); d.Size() != 0 {
		t.Fatalf("copies diverged: %d residual ops", d.Size())
	}
}

// TestApplySliceEdgeValidation: a shard slice (context records at both
// ends, see internal/partition) accepts an update to an interior record
// whose re-sign neighbourhood reaches the slice edge — the edge context's
// signature is unverifiable locally and must be skipped, while a forged
// interior record is still rejected.
func TestApplySliceEdgeValidation(t *testing.T) {
	h, sr := build(t, 12)
	key := signKey(t)

	// Carve a slice owning records 4..8 with contexts at 3 and 9.
	slice := &core.SignedRelation{Params: sr.Params, Schema: sr.Schema}
	for i := 3; i <= 9; i++ {
		slice.Recs = append(slice.Recs, sr.Recs[i])
	}

	// Owner updates the slice's first owned record (global 4): re-signs
	// records 3, 4, 5. Record 3 is the slice's left context.
	next := sr.Clone()
	k, rowID := next.Recs[4].Key(), next.Recs[4].Tuple.RowID
	if _, err := next.UpdateAttrs(h, key, k, rowID, someAttrs(sr)); err != nil {
		t.Fatal(err)
	}
	var d delta.Delta
	d.Relation = sr.Schema.Name
	for i := 3; i <= 5; i++ {
		rec := next.Recs[i]
		d.Ops = append(d.Ops, delta.Op{Kind: delta.OpUpsert, Key: rec.Key(), RowID: rec.Tuple.RowID, Rec: rec.Clone()})
	}

	// Apply would fail on the slice (edge signature binds global record 2);
	// ApplySlice must succeed.
	broken := slice.Clone()
	if err := delta.Apply(h, key.Public(), broken, d); err == nil {
		t.Fatal("Apply on a shard slice should fail at the edge signature")
	}
	if err := delta.ApplySlice(h, key.Public(), slice, d); err != nil {
		t.Fatalf("ApplySlice: %v", err)
	}
	if !slice.Recs[1].G.Equal(next.Recs[4].G) {
		t.Fatal("slice did not take the update")
	}

	// A forged interior record is still rejected by the slice variant.
	forged := d
	forged.Ops = append([]delta.Op(nil), d.Ops...)
	bad := forged.Ops[1]
	bad.Rec = bad.Rec.Clone()
	bad.Rec.Tuple.Attrs = append([]relation.Value(nil), bad.Rec.Tuple.Attrs...)
	bad.Rec.Tuple.Attrs[0] = relation.IntVal(999999)
	forged.Ops[1] = bad
	fresh := slice.Clone()
	if err := delta.ApplySlice(h, key.Public(), fresh, forged); !errors.Is(err, delta.ErrValidation) {
		t.Fatalf("forged op on slice: got %v, want ErrValidation", err)
	}
}

// TestApplyOpsRefusesIndexBookkeeping: ApplyOps on an indexed relation
// refuses, with core.ErrAggIndex, a delta its crypto index cannot follow
// — an inserted record whose signature is no value below N, and an index
// already out of step with the records — and leaves the index attached
// rather than dropping it for a slower path.
func TestApplyOpsRefusesIndexBookkeeping(t *testing.T) {
	h, owner := build(t, 20)
	pub := signKey(t).Public()
	published := owner.Clone()
	if err := published.BuildAggIndex(h, pub); err != nil {
		t.Fatal(err)
	}

	if _, err := owner.Insert(h, signKey(t), relation.Tuple{Key: 777, Attrs: someAttrs(owner)}); err != nil {
		t.Fatal(err)
	}
	d := delta.Diff(published, owner)
	forged := false
	for i := range d.Ops {
		if op := &d.Ops[i]; op.Kind == delta.OpUpsert && op.Key == 777 {
			op.Rec.Sig = pub.N.FillBytes(make([]byte, pub.SigBytes()))
			forged = true
		}
	}
	if !forged {
		t.Fatal("the insert's upsert is missing from the delta")
	}
	sr := published.Clone()
	if _, err := delta.ApplyOps(sr, d); !errors.Is(err, core.ErrAggIndex) {
		t.Fatalf("insert whose signature is N: %v, want core.ErrAggIndex", err)
	}
	if sr.AggIndex() == nil {
		t.Fatal("the refused delta detached the index")
	}

	owner = published.Clone()
	target := owner.Recs[10]
	if _, err := owner.UpdateAttrs(h, signKey(t), target.Key(), target.Tuple.RowID, someAttrs(owner)); err != nil {
		t.Fatal(err)
	}
	d = delta.Diff(published, owner)
	stale := published.Clone()
	stale.Recs = append(stale.Recs[:3:3], stale.Recs[4:]...) // a record gone behind the index's back
	if _, err := delta.ApplyOps(stale, d); !errors.Is(err, core.ErrAggIndex) {
		t.Fatalf("index out of step: %v, want core.ErrAggIndex", err)
	}
	if stale.AggIndex() == nil {
		t.Fatal("the refused delta detached the index")
	}
}
