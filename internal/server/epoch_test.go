package server_test

import (
	"errors"
	"sync"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
	"vcqr/internal/server"
	"vcqr/internal/sig"
	"vcqr/internal/verify"
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

// build signs an n-record uniform relation (single Payload column).
func build(t testing.TB, n int) (*hashx.Hasher, *core.SignedRelation) {
	t.Helper()
	h := hashx.New()
	rel, err := workload.Uniform(workload.UniformConfig{
		N: n, L: 0, U: 1 << 20, PayloadSize: 16, Seed: 7,
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

// ownerUpdate mutates one record on an owner copy and returns the delta
// a publisher would receive.
func ownerUpdate(t testing.TB, h *hashx.Hasher, ownerCopy *core.SignedRelation, idx int, payload []byte) delta.Delta {
	t.Helper()
	before := ownerCopy.Clone()
	rec := ownerCopy.Recs[idx]
	if _, err := ownerCopy.UpdateAttrs(h, signKey(t), rec.Key(), rec.Tuple.RowID,
		[]relation.Value{relation.BytesVal(payload)}); err != nil {
		t.Fatal(err)
	}
	return delta.Diff(before, ownerCopy)
}

// newBareServer is a server hosting nothing yet.
func newBareServer(t testing.TB, h *hashx.Hasher) *server.Server {
	t.Helper()
	s := server.New(server.Config{
		Hasher: h,
		Pub:    signKey(t).Public(),
		Policy: accessctl.NewPolicy(roleAll()),
	})
	t.Cleanup(s.Close)
	return s
}

// payloadOf verifies a full-range result of the Uniform relation and
// returns the payload of the record at index idx of its signed sequence
// (rows start at index 1, after the left delimiter).
func payloadOf(t testing.TB, v *verify.Verifier, res *engine.Result, idx int) relation.Value {
	t.Helper()
	rows, err := v.VerifyResult(engine.Query{Relation: "Uniform"}, roleAll(), res)
	if err != nil {
		t.Fatalf("result rejected: %v", err)
	}
	return rows[idx-1].Values[0].Val
}

// TestStoreViewAndEpochCutover: a delta cuts the relation over to a new
// epoch while a stream pinned before it keeps the old payload.
func TestStoreViewAndEpochCutover(t *testing.T) {
	h, sr := build(t, 32)
	ownerCopy := sr.Clone()
	orig := sr.Recs[3].Tuple.Attrs[0]
	v := verifierFor(t, h, sr)
	s := newBareServer(t, h)
	q := engine.Query{Relation: "Uniform"}

	if _, err := s.QueryStream("all", q, 0); !errors.Is(err, engine.ErrUnknownRelation) {
		t.Fatalf("empty server answered for Uniform: %v", err)
	}
	if err := s.AddRelation(sr, true); err != nil {
		t.Fatal(err)
	}
	epoch0 := s.Epoch()
	if epoch0 == 0 {
		t.Fatal("publishing did not advance the epoch")
	}
	old, err := s.QueryStream("all", q, 0)
	if err != nil {
		t.Fatal(err)
	}

	d := ownerUpdate(t, h, ownerCopy, 3, []byte("new-payload"))
	epoch1, err := s.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if epoch1 <= epoch0 {
		t.Fatalf("epoch did not advance: %d -> %d", epoch0, epoch1)
	}

	// The pre-delta epoch the stream pinned is untouched (copy-on-write):
	// its record 3 still carries the original payload.
	oldRes, err := engine.Collect(old)
	if err != nil {
		t.Fatal(err)
	}
	if !payloadOf(t, v, oldRes, 3).Equal(orig) {
		t.Fatal("the pinned pre-delta stream does not carry the old payload")
	}
	cur, err := collect(s, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	if !payloadOf(t, v, cur, 3).Equal(relation.BytesVal([]byte("new-payload"))) {
		t.Fatal("published record does not carry the delta payload")
	}
}

func TestStoreRejectsTamperedDelta(t *testing.T) {
	h, sr := build(t, 16)
	ownerCopy := sr.Clone()
	orig := sr.Recs[2].Tuple.Attrs[0]
	v := verifierFor(t, h, sr)
	s := newBareServer(t, h)
	if err := s.AddRelation(sr, false); err != nil {
		t.Fatal(err)
	}
	epoch0 := s.Epoch()

	d := ownerUpdate(t, h, ownerCopy, 2, []byte("legit"))
	// A man-in-the-middle swaps the payload without the owner's key: the
	// record's digest material no longer matches and apply must fail.
	for i := range d.Ops {
		if d.Ops[i].Kind == delta.OpUpsert && len(d.Ops[i].Rec.Tuple.Attrs) > 0 {
			d.Ops[i].Rec.Tuple.Attrs[0] = relation.BytesVal([]byte("evil"))
			break
		}
	}
	if _, err := s.ApplyDelta(d); err == nil {
		t.Fatal("tampered delta accepted")
	}
	if s.Epoch() != epoch0 {
		t.Fatal("rejected delta advanced the epoch")
	}
	cur, err := collect(s, "all", engine.Query{Relation: "Uniform"})
	if err != nil {
		t.Fatal(err)
	}
	if !payloadOf(t, v, cur, 2).Equal(orig) {
		t.Fatal("rejected delta mutated the published relation")
	}
}

func TestStoreDeltaKeepsSiblingEpoch(t *testing.T) {
	h, uni := build(t, 8)
	ownerCopy := uni.Clone()
	emp, err := workload.Employees(workload.EmployeeConfig{
		N: 8, L: 0, U: 1 << 20, PhotoSize: 8, HiddenPct: 0, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewParams(0, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	empSR, err := core.Build(h, signKey(t), p, emp)
	if err != nil {
		t.Fatal(err)
	}

	s := newBareServer(t, h)
	if err := s.AddRelation(uni, false); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRelation(empSR, false); err != nil {
		t.Fatal(err)
	}
	epoch := func(rel string) uint64 { return s.Stats().Hosted[rel][0].Epoch }
	empEpoch0 := epoch("Emp")

	if _, err := s.ApplyDelta(ownerUpdate(t, h, ownerCopy, 2, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	if empEpoch1 := epoch("Emp"); empEpoch1 != empEpoch0 {
		t.Fatalf("delta to Uniform bumped Emp's epoch %d -> %d (would invalidate its cache)", empEpoch0, empEpoch1)
	}
	if uniEpoch := epoch("Uniform"); uniEpoch <= empEpoch0 {
		t.Fatalf("Uniform epoch %d did not advance past %d", uniEpoch, empEpoch0)
	}
}

func TestStoreDeltaForUnhostedRelation(t *testing.T) {
	h, _ := build(t, 4)
	s := newBareServer(t, h)
	if _, err := s.ApplyDelta(delta.Delta{Relation: "nope"}); err == nil {
		t.Fatal("delta for unhosted relation accepted")
	}
}

// TestRelationRefusesEmptyDeltaAndRepublish: a plain relation takes the
// partitioned delta path, so a batch without operations is refused
// (delta.ErrEmpty) rather than republished at a fresh epoch, and AddRelation
// on a hosted name is refused (ErrAlreadyHosted) rather than replacing it.
// Neither refusal moves the epoch or the served records.
func TestRelationRefusesEmptyDeltaAndRepublish(t *testing.T) {
	h, sr := build(t, 8)
	v := verifierFor(t, h, sr)
	orig := sr.Recs[1].Tuple.Attrs[0]
	s := newBareServer(t, h)
	if err := s.AddRelation(sr, false); err != nil {
		t.Fatal(err)
	}
	epoch0 := s.Epoch()
	if _, err := s.ApplyDelta(delta.Delta{Relation: "Uniform"}); !errors.Is(err, delta.ErrEmpty) {
		t.Fatalf("empty delta: %v, want delta.ErrEmpty", err)
	}
	other := sr.Clone()
	if _, err := other.UpdateAttrs(h, signKey(t), other.Recs[1].Key(), other.Recs[1].Tuple.RowID,
		[]relation.Value{relation.BytesVal([]byte("republished"))}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRelation(other, false); !errors.Is(err, server.ErrAlreadyHosted) {
		t.Fatalf("re-publish: %v, want ErrAlreadyHosted", err)
	}
	if s.Epoch() != epoch0 {
		t.Fatalf("a refusal moved the epoch %d -> %d", epoch0, s.Epoch())
	}
	cur, err := collect(s, "all", engine.Query{Relation: "Uniform"})
	if err != nil {
		t.Fatal(err)
	}
	if !payloadOf(t, v, cur, 1).Equal(orig) {
		t.Fatal("a refused re-publish replaced the served relation")
	}
}

// TestRelationEmptiesAndRefills: a plain relation is the one slice of a
// K = 1 table, whose edges are the delimiters, so a delta may delete
// every record (only K > 1 shards refuse to empty). The empty relation
// verifies as an empty range, and a later insert repopulates it.
func TestRelationEmptiesAndRefills(t *testing.T) {
	h, sr := build(t, 4)
	owner := sr.Clone()
	v := verifierFor(t, h, sr)
	s := newBareServer(t, h)
	if err := s.AddRelation(sr, true); err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Relation: "Uniform"}
	rowsAfter := func(mutate func() error) []engine.Row {
		t.Helper()
		before := owner.Clone()
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyDelta(delta.Diff(before, owner)); err != nil {
			t.Fatalf("delta refused: %v", err)
		}
		res, err := collect(s, "all", q)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := v.VerifyResult(q, roleAll(), res)
		if err != nil {
			t.Fatalf("result rejected: %v", err)
		}
		return rows
	}

	if rows := rowsAfter(func() error {
		for owner.Len() > 0 {
			rec := owner.Recs[1]
			if _, err := owner.Delete(h, signKey(t), rec.Key(), rec.Tuple.RowID); err != nil {
				return err
			}
		}
		return nil
	}); len(rows) != 0 {
		t.Fatalf("emptied relation released %d rows", len(rows))
	}
	if n, ok := s.Stats().Relations["Uniform"]; !ok || n != 0 {
		t.Fatalf("emptied relation: Relations[Uniform] = %d, %v", n, ok)
	}

	const key = 1234
	rows := rowsAfter(func() error {
		_, err := owner.Insert(h, signKey(t), relation.Tuple{Key: key, Attrs: []relation.Value{relation.BytesVal([]byte("back"))}})
		return err
	})
	if len(rows) != 1 || rows[0].Key != key {
		t.Fatalf("refilled relation released %+v, want the one inserted row", rows)
	}
}
