package delta_test

import (
	"errors"
	"strings"
	"testing"

	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
)

// The re-proof cut (ValidateStaged, CheckEntryDigests): a staged entry
// reuses the chain digests of the published entry with its identity only
// when its kind, key and both chain digests are byte-equal to that
// entry's. These tests pin the boundary from both sides with owner-signed
// forgeries, so that only the digest re-proof can refuse them: every
// signature in them verifies.

// forge replaces entry i of sr with edit's copy of it, refolds its G —
// and its chain digest C, unless the edit set C itself — from the edited
// components unless keepG, and has the owner re-sign it and its two
// neighbours, as an owner who signs whatever it is handed would.
func forge(t *testing.T, h *hashx.Hasher, sr *core.SignedRelation, i int, keepG bool, edit func(*core.SignedRecord)) {
	t.Helper()
	rec := sr.Recs[i].Clone()
	edit(&rec)
	if !keepG {
		if rec.Combined.Equal(sr.Recs[i].Combined) {
			rec.Combined = h.CDigest(rec.UpCombined, rec.DownCombined)
		}
		b := h.Batch()
		rec.G = core.AppendG(&b, nil, rec.Kind, rec.Combined, rec.AttrRoot)
		b.Done()
	}
	sr.Recs[i] = &rec
	for _, j := range []int{i - 1, i, i + 1} {
		var prev, next hashx.Digest
		if j > 0 {
			prev = sr.Recs[j-1].G
		}
		if j < len(sr.Recs)-1 {
			next = sr.Recs[j+1].G
		}
		sr.Own(j).Sig = signKey(t).Sign(core.SigDigestFor(h, sr.Params, prev, sr.Recs[j].G, next))
	}
}

// stage applies owner's diff against published on a clone and validates
// it the way a node does, checking first that every touched signature
// verifies, so a refusal is the digest re-proof's.
func stage(t *testing.T, h *hashx.Hasher, published, owner *core.SignedRelation) error {
	t.Helper()
	staged := published.Clone()
	touched, err := delta.ApplyOps(staged, delta.Diff(published, owner))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range touched {
		if !staged.VerifyEntrySig(h, signKey(t).Public(), i) {
			t.Fatalf("forgery's entry %d signature does not verify", i)
		}
	}
	return delta.ValidateStaged(h, signKey(t).Public(), published, staged, touched, true, true)
}

func wantDigestRefusal(t *testing.T, err error, what string) {
	t.Helper()
	if !errors.Is(err, delta.ErrValidation) || !strings.Contains(err.Error(), "digest material") {
		t.Fatalf("%s: got %v, want ErrValidation on digest material", what, err)
	}
}

// TestCutReprovesChangedNeighbour: a one-record update re-signs the
// record's two neighbours. A neighbour whose G, UpCombined, DownCombined,
// chain digest C or AttrRoot differs from the published entry's is still
// re-proved and refused — a changed chain digest loses the cut and is
// re-derived, and AttrRoot, C and G are recomputed whether or not the
// chains are reused.
// The honest update passes, at fewer hash applications than re-deriving
// every touched entry.
func TestCutReprovesChangedNeighbour(t *testing.T) {
	h, sr := build(t, 16)
	const target, nb = 6, 5
	owner := sr.Clone()
	rec := owner.Recs[target]
	if _, err := owner.UpdateAttrs(h, signKey(t), rec.Key(), rec.Tuple.RowID, someAttrs(sr)); err != nil {
		t.Fatal(err)
	}
	if err := stage(t, h, sr, owner); err != nil {
		t.Fatalf("honest update refused: %v", err)
	}
	other := sr.Recs[10] // another key's digest material
	for _, f := range []struct {
		name  string
		keepG bool
		edit  func(*core.SignedRecord)
	}{
		{"UpCombined", false, func(r *core.SignedRecord) { r.UpCombined = other.UpCombined }},
		{"DownCombined", false, func(r *core.SignedRecord) { r.DownCombined = other.DownCombined }},
		{"Combined", false, func(r *core.SignedRecord) { r.Combined = other.Combined }},
		{"AttrRoot", false, func(r *core.SignedRecord) { r.AttrRoot = other.AttrRoot }},
		{"G", true, func(r *core.SignedRecord) { r.G = other.G }},
	} {
		forged := owner.Clone()
		forge(t, h, forged, nb, f.keepG, f.edit)
		wantDigestRefusal(t, stage(t, h, sr, forged), "neighbour with a changed "+f.name)
	}

	// The cut is real: the honest update re-proves its touched entries
	// with fewer hash applications against the published slice than
	// without it.
	staged := sr.Clone()
	touched, err := delta.ApplyOps(staged, delta.Diff(sr, owner))
	if err != nil {
		t.Fatal(err)
	}
	count := func(published *core.SignedRelation) uint64 {
		hc := hashx.New()
		if err := delta.ValidateStaged(hc, signKey(t).Public(), published, staged, touched, true, true); err != nil {
			t.Fatal(err)
		}
		return hc.Ops()
	}
	if cut, full := count(sr), count(nil); cut >= full {
		t.Fatalf("validation against the published slice took %d hash applications, %d without it", cut, full)
	}
}

// TestCutRederivesMovedKey: a record whose key changes by a delete plus
// an insert has a new identity, so no published entry lends it chain
// digests. Its check costs exactly the full derivation, and an inserted
// record carrying the deleted record's chains is refused.
func TestCutRederivesMovedKey(t *testing.T) {
	h, sr := build(t, 16)
	const victim = 6
	old := sr.Recs[victim]
	moved := old.Key() + 1
	if moved >= sr.Recs[victim+1].Key() {
		t.Fatalf("no free key after %d", old.Key())
	}
	owner := sr.Clone()
	if _, err := owner.Delete(h, signKey(t), old.Key(), old.Tuple.RowID); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Insert(h, signKey(t), relation.Tuple{Key: moved, Attrs: old.Tuple.Attrs}); err != nil {
		t.Fatal(err)
	}
	if err := stage(t, h, sr, owner); err != nil {
		t.Fatalf("honest move refused: %v", err)
	}

	staged := sr.Clone()
	if _, err := delta.ApplyOps(staged, delta.Diff(sr, owner)); err != nil {
		t.Fatal(err)
	}
	if staged.Recs[victim].Key() != moved {
		t.Fatalf("entry %d holds key %d, want %d", victim, staged.Recs[victim].Key(), moved)
	}
	count := func(published *core.SignedRelation) uint64 {
		hc := hashx.New()
		if err := delta.CheckEntryDigests(hc, published, staged, victim); err != nil {
			t.Fatal(err)
		}
		return hc.Ops()
	}
	if cut, full := count(sr), count(nil); cut != full {
		t.Fatalf("moved record re-proved with %d hash applications, full derivation takes %d", cut, full)
	}

	forged := owner.Clone()
	forge(t, h, forged, victim, false, func(r *core.SignedRecord) {
		r.UpCombined, r.DownCombined = old.UpCombined, old.DownCombined
	})
	wantDigestRefusal(t, stage(t, h, sr, forged), "moved record carrying its old chains")
}

// BenchmarkValidateStaged times a node's re-proof of a one-record update
// to a 1,026-entry slice (three re-signed entries, five touched): against
// the published slice, whose unchanged chain digests the cut reuses, and
// with none, re-deriving every touched entry's chains.
func BenchmarkValidateStaged(b *testing.B) {
	h, sr := build(b, 1024)
	pub := signKey(b).Public()
	if err := sr.BuildAggIndex(h, pub); err != nil {
		b.Fatal(err)
	}
	owner := sr.Clone()
	rec := owner.Recs[len(owner.Recs)/2]
	if _, err := owner.UpdateAttrs(h, signKey(b), rec.Key(), rec.Tuple.RowID, someAttrs(sr)); err != nil {
		b.Fatal(err)
	}
	staged := sr.Clone()
	touched, err := delta.ApplyOps(staged, delta.Diff(sr, owner))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name      string
		published *core.SignedRelation
	}{{"cut", sr}, {"full", nil}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := delta.ValidateStaged(h, pub, bc.published, staged, touched, true, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
