package verify_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
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

// fixture for direct verifier tests: a 30-record employee relation with
// an all-access role.
type vfix struct {
	h    *hashx.Hasher
	sr   *core.SignedRelation
	pub  *engine.Publisher
	role accessctl.Role
	v    *verify.Verifier
}

func newVFix(t testing.TB) *vfix {
	t.Helper()
	h := hashx.New()
	rel, err := workload.Employees(workload.EmployeeConfig{
		N: 30, L: 0, U: 1 << 20, PhotoSize: 16, Seed: 21,
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
	role := accessctl.Role{Name: "all"}
	pub := engine.NewPublisher(h, signKey(t).Public(), accessctl.NewPolicy(role))
	if err := pub.AddRelation(sr, false); err != nil {
		t.Fatal(err)
	}
	return &vfix{
		h: h, sr: sr, pub: pub, role: role,
		v: verify.New(h, signKey(t).Public(), p, rel.Schema),
	}
}

func (f *vfix) query(t testing.TB, q engine.Query) *engine.Result {
	t.Helper()
	res, err := f.pub.Execute("all", q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRejectsOverDisclosure(t *testing.T) {
	// Precision: an entry disclosing more columns than projected must be
	// rejected even though the extra values are authentic.
	f := newVFix(t)
	qNarrow := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 1 << 19, Project: []string{"Name"}}
	qWide := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 1 << 19}
	narrow := f.query(t, qNarrow)
	wide := f.query(t, qWide)
	if len(narrow.VO.Entries) == 0 || len(wide.VO.Entries) == 0 {
		t.Fatal("need non-empty results")
	}
	// Substitute the fully-disclosed entry for the projected one.
	narrow.VO.Entries[0] = wide.VO.Entries[0]
	_, err := f.v.VerifyResult(qNarrow, f.role, narrow)
	if err == nil {
		t.Fatal("over-disclosure accepted")
	}
	if !errors.Is(err, verify.ErrPrecision) && !errors.Is(err, verify.ErrEntry) {
		t.Fatalf("unexpected rejection reason: %v", err)
	}
}

// TestRejectsUnsortedDisclosure: a result entry's disclosed values must
// come in ascending column order, the order the publisher writes them.
// A verifier that accepted them in any order released a row whose values
// are the owner's but whose layout the publisher chose, so a client
// reading a row by position saw columns swapped.
func TestRejectsUnsortedDisclosure(t *testing.T) {
	f := newVFix(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 1 << 19, Project: []string{"Name", "Dept"}}
	res := f.query(t, q)
	e := &res.VO.Entries[0]
	if len(e.Disclosed) != 2 {
		t.Fatalf("want two disclosed columns, got %d", len(e.Disclosed))
	}
	e.Disclosed = []engine.DisclosedAttr{e.Disclosed[1], e.Disclosed[0]}
	if _, err := f.v.VerifyResult(q, f.role, res); !errors.Is(err, verify.ErrEntry) {
		t.Fatalf("reversed disclosure: %v, want ErrEntry", err)
	}
}

func TestRejectsMissingSignatures(t *testing.T) {
	f := newVFix(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 1 << 19}
	res := f.query(t, q)
	res.VO.AggSig = nil
	if _, err := f.v.VerifyResult(q, f.role, res); !errors.Is(err, verify.ErrSignature) {
		t.Fatalf("missing signatures: %v", err)
	}
}

func TestRejectsReorderedEntries(t *testing.T) {
	f := newVFix(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 1 << 19}
	res := f.query(t, q)
	if len(res.VO.Entries) < 2 {
		t.Fatal("need >= 2 entries")
	}
	es := res.VO.Entries
	es[0], es[1] = es[1], es[0]
	if _, err := f.v.VerifyResult(q, f.role, res); err == nil {
		t.Fatal("reordered entries accepted")
	}
}

func TestRejectsMalformedPredPrevG(t *testing.T) {
	f := newVFix(t)
	// An empty range whose predecessor is a real record.
	hiKey := f.sr.Recs[2].Key()
	loKey := hiKey + 1
	var hi uint64 = f.sr.Recs[3].Key() - 1
	if hi < loKey {
		t.Skip("adjacent keys; no empty gap at this seed")
	}
	q := engine.Query{Relation: "Emp", KeyLo: loKey, KeyHi: hi}
	res := f.query(t, q)
	if len(res.VO.Entries) != 0 {
		t.Fatal("expected empty result")
	}
	res.VO.PredPrevG = res.VO.PredPrevG[:4]
	if _, err := f.v.VerifyResult(q, f.role, res); err == nil {
		t.Fatal("malformed PredPrevG accepted")
	}
}

func TestRejectsEffectiveRangeMismatch(t *testing.T) {
	f := newVFix(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 1 << 19}
	res := f.query(t, q)
	res.VO.KeyHi++ // VO range differs from effective query
	if _, err := f.v.VerifyResult(q, f.role, res); !errors.Is(err, verify.ErrRewriteMismatch) {
		t.Fatalf("VO/effective mismatch: %v", err)
	}
}

// TestRandomBitFlipsNeverVerify flips random bits across the VO's digest
// material and checks that no mutation yields an accepted result — the
// blanket soundness fuzz.
func TestRandomBitFlipsNeverVerify(t *testing.T) {
	f := newVFix(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 1 << 19}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		res := f.query(t, q) // fresh result each time
		vo := &res.VO
		// Collect mutation targets: every digest slice in the VO.
		var targets [][]byte
		for i := range vo.Entries {
			e := &vo.Entries[i]
			for _, d := range e.HiddenLeaves {
				targets = append(targets, d)
			}
			if e.Combined != nil {
				targets = append(targets, e.Combined)
			}
		}
		for _, d := range vo.Left.Chain.Intermediates {
			targets = append(targets, d)
		}
		for _, d := range vo.Right.Chain.Intermediates {
			targets = append(targets, d)
		}
		if vo.Left.OtherCombined != nil {
			targets = append(targets, vo.Left.OtherCombined)
		}
		if vo.Left.AttrRoot != nil {
			targets = append(targets, vo.Left.AttrRoot)
		}
		targets = append(targets, vo.AggSig)
		tgt := targets[rng.Intn(len(targets))]
		tgt[rng.Intn(len(tgt))] ^= 1 << uint(rng.Intn(8))
		if _, err := f.v.VerifyResult(q, f.role, res); err == nil {
			t.Fatalf("trial %d: mutated VO verified", trial)
		}
	}
}

// TestHonestResultAlwaysVerifies is the complement of the fuzz above:
// across many random queries the honest publisher is never rejected.
func TestHonestResultAlwaysVerifies(t *testing.T) {
	f := newVFix(t)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		lo := uint64(rng.Intn(1<<20-2)) + 1
		hi := lo + uint64(rng.Intn(1<<18))
		if hi >= 1<<20 {
			hi = 1<<20 - 1
		}
		q := engine.Query{Relation: "Emp", KeyLo: lo, KeyHi: hi}
		switch trial % 3 {
		case 1:
			q.Project = []string{"Name", "Dept"}
		case 2:
			q.Filters = []engine.Filter{{Col: "Dept", Op: engine.OpLe, Val: relation.IntVal(2)}}
		}
		res := f.query(t, q)
		if _, err := f.v.VerifyResult(q, f.role, res); err != nil {
			t.Fatalf("trial %d [%d,%d]: honest result rejected: %v", trial, lo, hi, err)
		}
	}
}
