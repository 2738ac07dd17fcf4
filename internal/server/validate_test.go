package server_test

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/server"
	"vcqr/internal/wire"
)

// flipped is d with its first byte flipped, in fresh storage. A tamper
// edits the copy SignedRelation.Own swaps in: the clone it runs on shares
// its records with the owner's copy.
func flipped(d hashx.Digest) hashx.Digest {
	c := slices.Clone(d)
	c[0] ^= 0x01
	return c
}

// sliceTamper is one edit to a middle slice (a left and a right context
// record around its owned entries 1..n-2) and the entry a refusal must
// name, or -1 when the slice must still be accepted.
type sliceTamper struct {
	name   string
	mutate func(sl *core.SignedRelation)
	entry  func(n int) int
}

func sliceTampers() []sliceTamper {
	at := func(j int) func(int) int { return func(int) int { return j } }
	return []sliceTamper{
		{"first owned digest", func(sl *core.SignedRelation) {
			sl.Own(1).AttrRoot = flipped(sl.Recs[1].AttrRoot)
		}, at(1)},
		{"middle owned digest", func(sl *core.SignedRelation) {
			m := len(sl.Recs) / 2
			sl.Own(m).UpCombined = flipped(sl.Recs[m].UpCombined)
		}, func(n int) int { return n / 2 }},
		{"last owned digest", func(sl *core.SignedRelation) {
			l := len(sl.Recs) - 2
			sl.Own(l).DownCombined = flipped(sl.Recs[l].DownCombined)
		}, func(n int) int { return n - 2 }},
		{"swapped owned signatures", func(sl *core.SignedRelation) {
			a, b := sl.Own(3), sl.Own(4)
			a.Sig, b.Sig = b.Sig, a.Sig
		}, at(3)},
		{"left context digest", func(sl *core.SignedRelation) {
			sl.Own(0).AttrRoot = flipped(sl.Recs[0].AttrRoot)
		}, at(0)},
		{"right context digest", func(sl *core.SignedRelation) {
			l := len(sl.Recs) - 1
			sl.Own(l).UpCombined = flipped(sl.Recs[l].UpCombined)
		}, func(n int) int { return n - 1 }},
		{"two owned digests", func(sl *core.SignedRelation) {
			l := len(sl.Recs) - 2
			sl.Own(l).AttrRoot = flipped(sl.Recs[l].AttrRoot)
			sl.Own(2).G = flipped(sl.Recs[2].G)
		}, at(1)}, // entry 1's signature binds the stored g of entry 2
		{"context signature", func(sl *core.SignedRelation) {
			sl.Own(0).Sig = flipped(sl.Recs[0].Sig)
		}, at(-1)},
	}
}

// tamperedMiddle returns the owner's middle slice of a three-shard split
// with one tamper applied, and its spec.
func tamperedMiddle(t *testing.T, tc sliceTamper) (*hashx.Hasher, partition.Spec, *core.SignedRelation, int) {
	t.Helper()
	h, sr := build(t, 48)
	set, err := partition.Split(sr, 3)
	if err != nil {
		t.Fatal(err)
	}
	evil := set.Slices[1].Clone()
	tc.mutate(evil)
	return h, set.Spec, evil, tc.entry(len(evil.Recs))
}

// atProcs runs fn at GOMAXPROCS 1 and 4 and returns both results.
func atProcs(fn func() string) [2]string {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var out [2]string
	for i, p := range []int{1, 4} {
		runtime.GOMAXPROCS(p)
		out[i] = fn()
	}
	return out
}

// checkRefusal holds the verdicts of one tamper at GOMAXPROCS 1 and 4 to
// the same refusal naming the same entry, or to acceptance.
func checkRefusal(t *testing.T, got [2]string, entry int) {
	t.Helper()
	if entry < 0 {
		if got[0] != "" || got[1] != "" {
			t.Fatalf("slice refused for a tamper outside its checks: %q / %q", got[0], got[1])
		}
		return
	}
	if got[0] != got[1] {
		t.Fatalf("refusal depends on GOMAXPROCS: %q vs %q", got[0], got[1])
	}
	if want := fmt.Sprintf("entry %d ", entry); !strings.Contains(got[0], want) {
		t.Fatalf("refusal %q does not name %q", got[0], want)
	}
}

// Every check a node makes on an installed slice runs on the parallel
// entry checker: each tamper is refused with ErrInstallInvalid naming the
// entry a serial scan would name first, whatever the worker count; a
// context record's signature (it binds records on other shards) is left
// to the seam checks, as it always was.
func TestInstallShardRefusalMatrix(t *testing.T) {
	for _, tc := range sliceTampers() {
		t.Run(tc.name, func(t *testing.T) {
			h, spec, evil, entry := tamperedMiddle(t, tc)
			got := atProcs(func() string {
				s := newBareServer(t, h)
				err := s.InstallShard(wire.ShardManifest{Spec: spec, Shard: 1}, evil)
				if err == nil {
					return ""
				}
				if !errors.Is(err, server.ErrInstallInvalid) {
					t.Fatalf("refusal is not ErrInstallInvalid: %v", err)
				}
				return err.Error()
			})
			checkRefusal(t, got, entry)
		})
	}
}

// A cold start re-proves its WAL's slices with the same checker, so it
// refuses exactly the slices an install refuses.
func TestRecoverHostedRefusalMatrix(t *testing.T) {
	for _, tc := range sliceTampers() {
		t.Run(tc.name, func(t *testing.T) {
			h, spec, evil, entry := tamperedMiddle(t, tc)
			got := atProcs(func() string {
				dir := t.TempDir()
				ns := openStore(t, h, dir)
				if err := ns.LogInstall(spec.Relation, spec, 1, evil, partition.SliceDigest(h, evil)); err != nil {
					t.Fatal(err)
				}
				ns.Close()
				ns = openStore(t, h, dir)
				defer ns.Close()
				s := server.New(server.Config{Hasher: h, Pub: signKey(t).Public(), Policy: accessctl.NewPolicy(roleAll()), Store: ns})
				defer s.Close()
				rep, err := s.RecoverHosted()
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Refused)+len(rep.Published) != 1 {
					t.Fatalf("one slice logged, report %+v", rep)
				}
				if len(rep.Refused) == 0 {
					return ""
				}
				return rep.Refused[0]
			})
			checkRefusal(t, got, entry)
		})
	}
}
