package delta_test

import (
	"math/big"
	"math/rand"
	"testing"

	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
)

// This file is the property-test half of the crypto fast path: a
// tree-backed aggregate must equal the naive O(|Q|) fold for EVERY
// contiguous range — before and after arbitrary delta sequences, at
// every shard count. If the index ever drifts from the records it
// summarizes, the server would emit condensed signatures honest clients
// reject, so these tests treat any mismatch as fatal.

// naiveAggregate is the O(b-a) reference: fold the raw signatures.
func naiveAggregate(t *testing.T, pub *sig.PublicKey, sr *core.SignedRelation, a, b int) sig.Signature {
	t.Helper()
	agg := pub.NewAggregator()
	for i := a; i < b; i++ {
		if err := agg.Add(sig.Signature(sr.Recs[i].Sig)); err != nil {
			t.Fatalf("naive aggregate at %d: %v", i, err)
		}
	}
	s, err := agg.Sum()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// naiveFDH is the O(b-a) reference for the FDH product: recompute every
// entry's signed digest from its neighbours and fold the full-domain
// hashes.
func naiveFDH(h *hashx.Hasher, pub *sig.PublicKey, sr *core.SignedRelation, a, b int) *big.Int {
	acc := big.NewInt(1)
	for i := a; i < b; i++ {
		var prev, next hashx.Digest
		if i > 0 {
			prev = sr.Recs[i-1].G
		}
		if i < len(sr.Recs)-1 {
			next = sr.Recs[i+1].G
		}
		d := core.SigDigestFor(h, sr.Params, prev, sr.Recs[i].G, next)
		acc.Mul(acc, pub.FDH(d))
		acc.Mod(acc, pub.N)
	}
	return acc
}

// checkIndexedRanges draws random contiguous ranges and checks every
// index product against its naive reference, plus the one-exponentiation
// range verification in both the accepting and rejecting direction.
// slice marks a partition shard slice: its two context records'
// signatures bind digests outside the slice, so the VerifyRange
// accept-check only applies to ranges inside the owned region [1, n-1)
// (see AggIndex.VerifyRange).
func checkIndexedRanges(t *testing.T, rng *rand.Rand, h *hashx.Hasher, pub *sig.PublicKey, sr *core.SignedRelation, rounds int, slice bool) {
	t.Helper()
	ix := sr.AggIndex()
	if ix == nil {
		t.Fatal("relation lost its crypto index")
	}
	if ix.Len() != len(sr.Recs) {
		t.Fatalf("index covers %d entries, relation has %d", ix.Len(), len(sr.Recs))
	}
	n := len(sr.Recs)
	for r := 0; r < rounds; r++ {
		a := rng.Intn(n)
		b := a + 1 + rng.Intn(n-a)
		tree, err := ix.RangeAggregate(a, b)
		if err != nil {
			t.Fatalf("RangeAggregate(%d,%d): %v", a, b, err)
		}
		if !tree.Equal(naiveAggregate(t, pub, sr, a, b)) {
			t.Fatalf("RangeAggregate(%d,%d) != naive fold", a, b)
		}
		if got, want := ix.RangeFDH(a, b), naiveFDH(h, pub, sr, a, b); got.Cmp(want) != 0 {
			t.Fatalf("RangeFDH(%d,%d) != naive FDH product", a, b)
		}
		if !slice || (a >= 1 && b <= n-1) {
			if !ix.VerifyRange(a, b, tree) {
				t.Fatalf("VerifyRange(%d,%d) rejected the honest aggregate", a, b)
			}
		}
		bad := tree.Clone()
		bad[len(bad)-1] ^= 1
		if ix.VerifyRange(a, b, bad) {
			t.Fatalf("VerifyRange(%d,%d) accepted a tampered aggregate", a, b)
		}
	}
}

// TestAggIndexRandomDeltas drives the unpartitioned incremental path:
// random owner edit batches flow to an indexed publisher copy through
// delta.Apply, whose ApplyOps maintains the index in lock-step. After
// every cutover the index must still be attached (no silent rebuild
// fallback) and agree with the naive fold on random ranges.
func TestAggIndexRandomDeltas(t *testing.T) {
	h, owner := build(t, 40)
	pub := signKey(t).Public()

	publisher := owner.Clone()
	if err := publisher.BuildAggIndex(h, pub); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	checkIndexedRanges(t, rng, h, pub, publisher, 24, false)

	for round := 0; round < 8; round++ {
		prev := owner.Clone()
		edits := 1 + rng.Intn(3)
		for e := 0; e < edits; e++ {
			switch rng.Intn(3) {
			case 0:
				tup := relation.Tuple{Key: 1 + uint64(rng.Intn(1<<20-2)), Attrs: someAttrs(owner)}
				if _, err := owner.Insert(h, signKey(t), tup); err != nil {
					t.Fatal(err)
				}
			case 1:
				if owner.Len() <= 5 {
					continue
				}
				rec := owner.Recs[1+rng.Intn(owner.Len())]
				if _, err := owner.Delete(h, signKey(t), rec.Key(), rec.Tuple.RowID); err != nil {
					t.Fatal(err)
				}
			default:
				rec := owner.Recs[1+rng.Intn(owner.Len())]
				if _, err := owner.UpdateAttrs(h, signKey(t), rec.Key(), rec.Tuple.RowID, someAttrs(owner)); err != nil {
					t.Fatal(err)
				}
			}
		}
		d := delta.Diff(prev, owner)
		if err := delta.Apply(h, pub, publisher, d); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkIndexedRanges(t, rng, h, pub, publisher, 16, false)
	}

	// End-to-end anchor: after all the incremental maintenance, the
	// index must equal an index built from scratch on the final records.
	fresh := publisher.Clone()
	if err := fresh.BuildAggIndex(h, pub); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 16; r++ {
		a := rng.Intn(len(publisher.Recs))
		b := a + 1 + rng.Intn(len(publisher.Recs)-a)
		inc, err := publisher.AggIndex().RangeAggregate(a, b)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := fresh.AggIndex().RangeAggregate(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !inc.Equal(scratch) {
			t.Fatalf("incrementally maintained index diverged from a fresh build at [%d,%d)", a, b)
		}
	}
}

// TestAggIndexShardedDeltas runs the same property at every shard count
// 1..4: each shard slice gets its own index, random ranges on every
// slice must match the naive fold, and an interior delta applied through
// delta.ApplySlice must keep that shard's index attached and exact. At
// two or more shards, seam deltas follow (seamDeltas): the serving
// tiers' stitches and mirror fixes must keep every index exact too.
func TestAggIndexShardedDeltas(t *testing.T) {
	h, master := build(t, 60)
	pub := signKey(t).Public()
	rng := rand.New(rand.NewSource(31))

	for shards := 1; shards <= 4; shards++ {
		var slices []*core.SignedRelation
		if shards == 1 {
			slices = []*core.SignedRelation{master.Clone()}
		} else {
			set, err := partition.Split(master.Clone(), shards)
			if err != nil {
				t.Fatalf("split k=%d: %v", shards, err)
			}
			slices = set.Slices
		}
		for si, sl := range slices {
			if err := sl.BuildAggIndex(h, pub); err != nil {
				t.Fatalf("k=%d shard %d: %v", shards, si, err)
			}
			checkIndexedRanges(t, rng, h, pub, sl, 12, shards > 1)
		}

		// An interior update on every slice (far enough from the edges
		// that no mirror is involved), shipped as a real delta.
		for si, sl := range slices {
			if len(sl.Recs) < 9 {
				continue
			}
			pos := 3 + rng.Intn(len(sl.Recs)-7) // re-signs stay in [2, len-3]
			rec := sl.Recs[pos]
			ownerSlice := sl.Clone()
			if _, err := ownerSlice.UpdateAttrs(h, signKey(t), rec.Key(), rec.Tuple.RowID, someAttrs(master)); err != nil {
				t.Fatalf("k=%d shard %d: %v", shards, si, err)
			}
			d := delta.Diff(sl, ownerSlice)
			if d.Size() == 0 {
				t.Fatalf("k=%d shard %d: empty interior delta", shards, si)
			}
			if err := delta.ApplySlice(h, pub, sl, d); err != nil {
				t.Fatalf("k=%d shard %d: apply: %v", shards, si, err)
			}
			checkIndexedRanges(t, rng, h, pub, sl, 12, shards > 1)
		}
		if shards > 1 {
			seamDeltas(t, rng, h, pub, master.Clone(), shards)
		}
	}
}

// seamDeltas drives updates, deletes and inserts at every seam of a
// k-shard split the way the serving tiers deliver them: the owner's
// batch is routed per shard (Route) and applied with ApplyOps, then every
// neighbour's context record is re-stitched from the owning slice and its
// leaves refreshed — what a co-hosted stitch and a cross-node mirror fix
// both do. A delete or insert at a seam swaps a context record's
// identity. After every delta each slice's index must match the naive
// fold, and the slices must stitch back to the owner's relation.
func seamDeltas(t *testing.T, rng *rand.Rand, h *hashx.Hasher, pub *sig.PublicKey, owner *core.SignedRelation, k int) {
	t.Helper()
	set, err := partition.Split(owner.Clone(), k)
	if err != nil {
		t.Fatal(err)
	}
	for i, sl := range set.Slices {
		// Split's slices share one record array; a node holds each in its
		// own, so a write to one slice never shows in its neighbour.
		set.Slices[i] = sl.Clone()
		if err := set.Slices[i].BuildAggIndex(h, pub); err != nil {
			t.Fatal(err)
		}
	}
	restitch := func(sl *core.SignedRelation, pos int, want *core.SignedRecord) {
		if !partition.SameRecord(sl.Recs[pos], want) {
			sl.Recs[pos] = want
			sl.RefreshAggIndex([]int{pos})
		}
	}
	for seam := 0; seam < k-1; seam++ {
		for _, edit := range []string{"update", "delete", "insert"} {
			left := set.Slices[seam]
			last := left.Recs[len(left.Recs)-2]
			before := owner.Clone()
			var err error
			switch edit {
			case "update":
				_, err = owner.UpdateAttrs(h, signKey(t), last.Key(), last.Tuple.RowID, someAttrs(owner))
			case "delete":
				_, err = owner.Delete(h, signKey(t), last.Key(), last.Tuple.RowID)
			case "insert": // a duplicate key lands after last, as the shard's new last record
				_, err = owner.Insert(h, signKey(t), relation.Tuple{Key: last.Key(), Attrs: someAttrs(owner)})
			}
			if err != nil {
				t.Fatalf("k=%d seam %d %s: %v", k, seam, edit, err)
			}
			groups, err := delta.Route(set.Spec, delta.Diff(before, owner))
			if err != nil {
				t.Fatal(err)
			}
			for i, ops := range groups {
				if _, err := delta.ApplyOps(set.Slices[i], delta.Delta{Relation: owner.Schema.Name, Ops: ops}); err != nil {
					t.Fatalf("k=%d seam %d %s: shard %d: %v", k, seam, edit, i, err)
				}
			}
			for i := 0; i+1 < k; i++ {
				l, r := set.Slices[i], set.Slices[i+1]
				restitch(l, len(l.Recs)-1, r.Recs[1])
				restitch(r, 0, l.Recs[len(l.Recs)-2])
			}
			stitched, err := set.Stitch()
			if err != nil {
				t.Fatal(err)
			}
			if !partition.SameSlice(stitched, owner) {
				t.Fatalf("k=%d seam %d %s: the slices no longer stitch to the owner's relation", k, seam, edit)
			}
			for _, sl := range set.Slices {
				checkIndexedRanges(t, rng, h, pub, sl, 8, true)
			}
		}
	}
}
