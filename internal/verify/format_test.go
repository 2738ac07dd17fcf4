package verify_test

import (
	"errors"
	"testing"

	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/verify"
)

// TestHiddenEntryCarriesKeyLeaf: a Section 4.4 Case 2 entry keeps its key
// hidden, so its key leaf travels as the last hidden digest. The stream
// verifies with it; without it, or with a neighbour's key leaf in its
// place, it does not.
func TestHiddenEntryCarriesKeyLeaf(t *testing.T) {
	f := newTamperFixture(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1}
	res, err := f.pub.Execute("clerk", q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.v.VerifyResult(q, f.roles["clerk"], res); err != nil {
		t.Fatalf("honest stream with hidden entries refused: %v", err)
	}
	sr, _ := f.pub.Relation("Emp")
	keyLeaves := map[string]uint64{}
	for _, rec := range sr.Recs[1 : len(sr.Recs)-1] {
		keyLeaves[string(core.KeyLeaf(f.v.H, rec.Key()))] = rec.Key()
	}
	hidden := -1
	for i, e := range res.VO.Entries {
		if e.Mode == engine.EntryFilteredHidden {
			hidden = i
			break
		}
	}
	if hidden < 0 {
		t.Fatal("fixture has no hidden entry")
	}
	e := res.VO.Entries[hidden]
	if want := len(f.v.Schema.Cols) + 1; len(e.HiddenLeaves) != want {
		t.Fatalf("hidden entry ships %d leaf digests, want %d (row id, the unopened columns, the key)", len(e.HiddenLeaves), want)
	}
	key, ok := keyLeaves[string(e.HiddenLeaves[len(e.HiddenLeaves)-1])]
	if !ok {
		t.Fatal("hidden entry's last leaf digest is no record's key leaf")
	}
	for _, tc := range []struct {
		name   string
		leaves []hashx.Digest
		want   error
	}{
		{"key leaf dropped", e.HiddenLeaves[:len(e.HiddenLeaves)-1], verify.ErrEntry},
		{"neighbour's key leaf", append(append([]hashx.Digest(nil), e.HiddenLeaves[:len(e.HiddenLeaves)-1]...),
			core.KeyLeaf(f.v.H, key+1)), verify.ErrSignature},
	} {
		edited := *res
		edited.VO.Entries = append([]engine.VOEntry(nil), res.VO.Entries...)
		edited.VO.Entries[hidden].HiddenLeaves = tc.leaves
		if _, err := f.v.VerifyResult(q, f.roles["clerk"], &edited); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestVerifierRefusesOldParams: a user still holding parameters of an
// older record format — from before format 1, or format 1's, whose g
// folded both chain digests — refuses every stream at its header by
// name, rather than failing each row's signature.
func TestVerifierRefusesOldParams(t *testing.T) {
	f := newTamperFixture(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1}
	res, err := f.pub.Execute("all", q)
	if err != nil {
		t.Fatal(err)
	}
	for format := uint64(0); format < core.RecordFormat; format++ {
		old := f.v.Params
		old.Format = format
		v := verify.New(f.v.H, f.v.Pub, old, f.v.Schema)
		sv := v.NewStreamVerifier(q, f.roles["all"])
		header := engine.ChunkResult(res, 0)[0]
		if _, err := sv.Consume(header); !errors.Is(err, core.ErrRecordFormat) {
			t.Errorf("format-%d params: header %v, want core.ErrRecordFormat", format, err)
		}
		if _, err := v.VerifyResult(q, f.roles["all"], res); !errors.Is(err, core.ErrRecordFormat) {
			t.Errorf("format-%d params: %v, want core.ErrRecordFormat", format, err)
		}
	}
}
