package relalg_test

import (
	"errors"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/paper/relalg"
	"vcqr/internal/verify"
	"vcqr/internal/workload"
)

// vfix is a 30-record employee relation with an all-access role.
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

func TestNotEqualDecomposition(t *testing.T) {
	uq, err := relalg.NotEqual("Emp", 500, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(uq.Ranges) != 2 {
		t.Fatalf("ranges = %v", uq.Ranges)
	}
	if uq.Ranges[0] != (relalg.KeyRange{Lo: 1, Hi: 499}) ||
		uq.Ranges[1] != (relalg.KeyRange{Lo: 501, Hi: 999}) {
		t.Fatalf("ranges = %v", uq.Ranges)
	}
	// Edge keys produce a single range.
	uq, err = relalg.NotEqual("Emp", 1, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(uq.Ranges) != 1 || uq.Ranges[0].Lo != 2 {
		t.Fatalf("ranges at edge = %v", uq.Ranges)
	}
	if _, err := relalg.NotEqual("Emp", 0, 0, 1000); err == nil {
		t.Fatal("key at L accepted")
	}
}

// TestNotEqualRoundTrip runs K != key end to end: the union result must
// contain every record except those with the excluded key.
func TestNotEqualRoundTrip(t *testing.T) {
	f := newVFix(t)
	// Pick an existing key to exclude.
	exclude := f.sr.Recs[3].Key()
	uq, err := relalg.NotEqual("Emp", exclude, f.sr.Params.L, f.sr.Params.U)
	if err != nil {
		t.Fatal(err)
	}
	res, err := relalg.ExecuteUnion(f.pub, "all", uq)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := relalg.VerifyUnion(f.v, uq, f.role, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != f.sr.Len()-1 {
		t.Fatalf("rows = %d, want %d", len(rows), f.sr.Len()-1)
	}
	for _, r := range rows {
		if r.Key == exclude {
			t.Fatalf("excluded key %d present", exclude)
		}
	}
}

func TestUnionOverlapRejected(t *testing.T) {
	f := newVFix(t)
	uq := relalg.UnionQuery{Relation: "Emp", Ranges: []relalg.KeyRange{
		{Lo: 1, Hi: 100}, {Lo: 50, Hi: 200},
	}}
	if _, err := relalg.ExecuteUnion(f.pub, "all", uq); err == nil {
		t.Fatal("overlapping ranges accepted by publisher")
	}
	// Verifier independently rejects overlap.
	fake := &relalg.UnionResult{Members: make([]*engine.Result, 2)}
	if _, err := relalg.VerifyUnion(f.v, uq, f.role, fake); !errors.Is(err, relalg.ErrUnionShape) {
		t.Fatalf("verifier overlap: %v", err)
	}
}

func TestUnionMissingMemberRejected(t *testing.T) {
	f := newVFix(t)
	uq := relalg.UnionQuery{Relation: "Emp", Ranges: []relalg.KeyRange{
		{Lo: 1, Hi: 1000}, {Lo: 2000, Hi: 1 << 19},
	}}
	res, err := relalg.ExecuteUnion(f.pub, "all", uq)
	if err != nil {
		t.Fatal(err)
	}
	res.Members[1] = nil // publisher silently drops a member
	if _, err := relalg.VerifyUnion(f.v, uq, f.role, res); !errors.Is(err, relalg.ErrUnionMember) {
		t.Fatalf("missing member: %v", err)
	}
}

func TestUnionRespectsRowPolicy(t *testing.T) {
	// A member range entirely outside the role's rights must be nil; the
	// verifier knows that from its own policy knowledge.
	f := newVFix(t)
	limited := accessctl.Role{Name: "limited", KeyHi: 1 << 10}
	pub := engine.NewPublisher(f.h, signKey(t).Public(), accessctl.NewPolicy(limited))
	if err := pub.AddRelation(f.sr, false); err != nil {
		t.Fatal(err)
	}
	uq := relalg.UnionQuery{Relation: "Emp", Ranges: []relalg.KeyRange{
		{Lo: 1, Hi: 1 << 10},           // inside rights
		{Lo: 1<<10 + 1, Hi: 1<<20 - 1}, // entirely outside rights
	}}
	res, err := relalg.ExecuteUnion(pub, "limited", uq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Members[1] != nil {
		t.Fatal("out-of-rights member should be nil")
	}
	if _, err := relalg.VerifyUnion(f.v, uq, limited, res); err != nil {
		t.Fatalf("legitimate union rejected: %v", err)
	}
	// A publisher ignoring the policy and answering the second member
	// anyway is rejected.
	full, err := relalg.ExecuteUnion(f.pub, "all", uq)
	if err != nil {
		t.Fatal(err)
	}
	res.Members[1] = full.Members[1]
	if _, err := relalg.VerifyUnion(f.v, uq, limited, res); err == nil {
		t.Fatal("out-of-rights member accepted")
	}
}
