package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
	"vcqr/internal/workload"
)

var (
	testKey *sig.PrivateKey
	keyOnce sync.Once
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

// buildSet signs a k-shard publication — real slices with real chained
// signatures, because the store's commit records must round-trip the
// same record structure production does.
func buildSet(t testing.TB, h *hashx.Hasher, n, k int) *partition.Set {
	t.Helper()
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
	set, err := partition.Split(sr, k)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// evolve returns a successor of sl with one owned record's payload
// re-signed — the post-state of a committed delta.
func evolve(t testing.TB, h *hashx.Hasher, sl *core.SignedRelation, idx int, payload []byte) *core.SignedRelation {
	t.Helper()
	next := sl.Clone()
	rec := next.Recs[idx]
	if _, err := next.UpdateAttrs(h, signKey(t), rec.Key(), rec.Tuple.RowID,
		[]relation.Value{relation.BytesVal(payload)}); err != nil {
		t.Fatal(err)
	}
	return next
}

func install(t *testing.T, ns *NodeStore, rel string, set *partition.Set) {
	t.Helper()
	for i, sl := range set.Slices {
		if err := ns.LogInstall(rel, set.Spec, i, sl, partition.SliceDigest(ns.h, sl)); err != nil {
			t.Fatalf("install shard %d: %v", i, err)
		}
	}
}

// compareStates asserts two stores recovered byte-identical state:
// same relations, specs, shards, slice digests (the canonical content
// hash), install digests and delta counters.
func compareStates(t *testing.T, got, want *NodeStore) {
	t.Helper()
	g, w := got.Recovered(), want.Recovered()
	if len(g) != len(w) {
		t.Fatalf("recovered %d relations, want %d", len(g), len(w))
	}
	for rel, wr := range w {
		gr, ok := g[rel]
		if !ok {
			t.Fatalf("relation %q missing", rel)
		}
		if gr.Spec.Version != wr.Spec.Version {
			t.Fatalf("%s: spec v%d, want v%d", rel, gr.Spec.Version, wr.Spec.Version)
		}
		if len(gr.Shards) != len(wr.Shards) {
			t.Fatalf("%s: %d shards, want %d", rel, len(gr.Shards), len(wr.Shards))
		}
		for i, ws := range wr.Shards {
			gs := gr.Shards[i]
			if gs.Shard != ws.Shard || gs.Deltas != ws.Deltas {
				t.Fatalf("%s/%d: shard=%d deltas=%d, want shard=%d deltas=%d",
					rel, ws.Shard, gs.Shard, gs.Deltas, ws.Shard, ws.Deltas)
			}
			if !gs.InstallDigest.Equal(ws.InstallDigest) {
				t.Fatalf("%s/%d: install digest diverged", rel, ws.Shard)
			}
			gd := partition.SliceDigest(got.h, gs.Slice)
			wd := partition.SliceDigest(want.h, ws.Slice)
			if !gd.Equal(wd) {
				t.Fatalf("%s/%d: slice content diverged", rel, ws.Shard)
			}
		}
	}
}

// Cold start replays the full operation log: installs, a committed
// delta, a removal.
func TestNodeStoreColdStartReplay(t *testing.T) {
	h := hashx.New()
	set := buildSet(t, h, 24, 2)
	dir := t.TempDir()
	opts := Options{Hasher: h, SnapshotEvery: -1}
	ns, _, err := OpenNode(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	install(t, ns, "Uniform", set)
	old := set.Slices[0]
	next := evolve(t, h, old, len(old.Recs)/2, []byte("v2-payload-bytes"))
	postDg := partition.SliceDigest(h, next)
	if err := ns.LogCommit("Uniform", []CommitShard{{Shard: 0, Old: old, New: next, PostDigest: postDg}}); err != nil {
		t.Fatal(err)
	}
	if err := ns.LogRemove("Uniform", 1); err != nil {
		t.Fatal(err)
	}
	ns.Close()

	ns2, rep, err := OpenNode(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ns2.Close()
	if rep.Replayed != 4 || rep.TornTail != nil || len(rep.Refused) != 0 {
		t.Fatalf("replay report off: %+v", rep)
	}
	rec := ns2.Recovered()["Uniform"]
	if len(rec.Shards) != 1 || rec.Shards[0].Shard != 0 {
		t.Fatalf("recovered shards %+v, want only shard 0 (shard 1 was removed)", rec.Shards)
	}
	sh := rec.Shards[0]
	if sh.Deltas != 1 || !partition.SliceDigest(h, sh.Slice).Equal(postDg) {
		t.Fatalf("shard 0 recovered pre-delta state (deltas=%d)", sh.Deltas)
	}
	if st := ns2.Stats(); st.ColdStarts != 1 || st.Seq != 4 {
		t.Fatalf("stats off: %+v", st)
	}
}

// An automatic snapshot folds the WAL away; the next cold start loads
// the image and replays nothing.
func TestNodeAutoSnapshotCompaction(t *testing.T) {
	h := hashx.New()
	set := buildSet(t, h, 24, 2)
	dir := t.TempDir()
	opts := Options{Hasher: h, SnapshotEvery: 2}
	ns, _, err := OpenNode(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	install(t, ns, "Uniform", set) // 2 appends → snapshot fires
	if st := ns.Stats(); st.Snapshots != 1 || st.Pending != 0 || st.SnapshotSeq != 2 {
		t.Fatalf("auto snapshot did not fire: %+v", st)
	}
	if fi, err := os.Stat(filepath.Join(dir, "node.wal")); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL not truncated after snapshot: %v / %d bytes", err, fi.Size())
	}
	ns.Close()

	ns2, rep, err := OpenNode(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ns2.Close()
	if rep.SnapshotSeq != 2 || rep.Replayed != 0 || rep.SnapshotErr != nil {
		t.Fatalf("cold start from snapshot off: %+v", rep)
	}
	if rec := ns2.Recovered()["Uniform"]; len(rec.Shards) != 2 {
		t.Fatalf("recovered %d shards from snapshot, want 2", len(rec.Shards))
	}
}

// The crash matrix: one injected death at each of the five points, then
// a cold start. Before-append and mid-record crashes recover the
// pre-operation state (the record never became durable — and was never
// acknowledged); after-append recovers the post-operation state (the
// record was durable even though the caller never heard success);
// either side of the snapshot rename recovers the committed state
// exactly, with sequence numbers preventing a double apply.
func TestNodeCrashMatrix(t *testing.T) {
	h := hashx.New()
	set := buildSet(t, h, 24, 2)
	for _, p := range CrashPoints {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			crash := &Crasher{}
			opts := Options{Hasher: h, SnapshotEvery: -1, Crash: crash}
			ns, _, err := OpenNode(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			install(t, ns, "Uniform", set)
			old := set.Slices[0]
			next := evolve(t, h, old, len(old.Recs)/2, []byte("matrix-payload-1"))
			postDg := partition.SliceDigest(h, next)
			commit := []CommitShard{{Shard: 0, Old: old, New: next, PostDigest: postDg}}

			switch p {
			case CrashBeforeAppend, CrashMidRecord, CrashAfterAppend:
				crash.Arm(p)
				if err := ns.LogCommit("Uniform", commit); !errors.Is(err, ErrCrash) {
					t.Fatalf("armed commit returned %v, want ErrCrash", err)
				}
			case CrashBeforeRename, CrashAfterRename:
				if err := ns.LogCommit("Uniform", commit); err != nil {
					t.Fatal(err)
				}
				crash.Arm(p)
				if err := ns.Snapshot(); !errors.Is(err, ErrCrash) {
					t.Fatalf("armed snapshot returned %v, want ErrCrash", err)
				}
			}
			if crash.Fired() != 1 {
				t.Fatalf("crash fired %d times, want exactly 1", crash.Fired())
			}
			ns.Close()

			ns2, rep, err := OpenNode(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ns2.Close()

			wantDeltas, wantDg := uint64(0), partition.SliceDigest(h, old)
			switch p {
			case CrashAfterAppend, CrashBeforeRename, CrashAfterRename:
				wantDeltas, wantDg = 1, postDg
			}
			rec := ns2.Recovered()["Uniform"]
			if len(rec.Shards) != 2 {
				t.Fatalf("recovered %d shards, want 2", len(rec.Shards))
			}
			sh0 := rec.Shards[0]
			if sh0.Deltas != wantDeltas || !partition.SliceDigest(h, sh0.Slice).Equal(wantDg) {
				t.Fatalf("shard 0 after %s: deltas=%d, want %d (digest match %v)",
					p, sh0.Deltas, wantDeltas, partition.SliceDigest(h, sh0.Slice).Equal(wantDg))
			}
			if dg1 := partition.SliceDigest(h, rec.Shards[1].Slice); !dg1.Equal(partition.SliceDigest(h, set.Slices[1])) {
				t.Fatalf("shard 1 (untouched) diverged after %s", p)
			}

			switch p {
			case CrashMidRecord:
				if !errors.Is(rep.TornTail, ErrWALTorn) {
					t.Fatalf("mid-record crash not reported as a torn tail: %v", rep.TornTail)
				}
			case CrashBeforeRename:
				// The half-finished snapshot must be gone, not adopted.
				if _, err := os.Stat(filepath.Join(dir, "node.snap.tmp")); !os.IsNotExist(err) {
					t.Fatal("leftover snapshot temp file survived recovery")
				}
				if rep.SnapshotSeq != 0 {
					t.Fatalf("unrenamed snapshot was adopted (seq %d)", rep.SnapshotSeq)
				}
			case CrashAfterRename:
				// Snapshot renamed, WAL never truncated: the replay must
				// skip every absorbed record instead of double-applying.
				if rep.SnapshotSeq == 0 {
					t.Fatal("renamed snapshot was not adopted")
				}
				if rep.Skipped != 3 || rep.Replayed != 0 {
					t.Fatalf("double-apply guard: skipped=%d replayed=%d, want 3/0", rep.Skipped, rep.Replayed)
				}
			}
		})
	}
}

// The recovery property: across shard counts 1–4 and a stream of
// random deltas each interrupted at every crash point, a store that
// crashed and replayed is indistinguishable from one that never did.
func TestNodeCrashRecoveryProperty(t *testing.T) {
	h := hashx.New()
	for k := 1; k <= 4; k++ {
		t.Run(fmt.Sprintf("shards-%d", k), func(t *testing.T) {
			set := buildSet(t, h, 12*k, k)
			rng := rand.New(rand.NewSource(int64(100 + k)))
			crash := &Crasher{}
			dutOpts := Options{Hasher: h, SnapshotEvery: -1, Crash: crash}
			ctlOpts := Options{Hasher: h, SnapshotEvery: -1}
			dut, _, err := OpenNode(t.TempDir(), dutOpts)
			if err != nil {
				t.Fatal(err)
			}
			ctl, _, err := OpenNode(t.TempDir(), ctlOpts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { dut.Close(); ctl.Close() }()
			install(t, dut, "Uniform", set)
			install(t, ctl, "Uniform", set)
			cur := append([]*core.SignedRelation{}, set.Slices...)

			step := 0
			for _, p := range CrashPoints {
				for round := 0; round < 2; round++ {
					step++
					shard := rng.Intn(k)
					old := cur[shard]
					next := evolve(t, h, old, 1+rng.Intn(len(old.Recs)-2),
						[]byte(fmt.Sprintf("step-%02d-payload", step)))
					commit := []CommitShard{{
						Shard: shard, Old: old, New: next,
						PostDigest: partition.SliceDigest(h, next),
					}}
					durable := false
					switch p {
					case CrashBeforeAppend, CrashMidRecord, CrashAfterAppend:
						crash.Arm(p)
						if err := dut.LogCommit("Uniform", commit); !errors.Is(err, ErrCrash) {
							t.Fatalf("step %d: armed commit returned %v", step, err)
						}
						durable = p == CrashAfterAppend
					case CrashBeforeRename, CrashAfterRename:
						if err := dut.LogCommit("Uniform", commit); err != nil {
							t.Fatal(err)
						}
						crash.Arm(p)
						if err := dut.Snapshot(); !errors.Is(err, ErrCrash) {
							t.Fatalf("step %d: armed snapshot returned %v", step, err)
						}
						durable = true
					}

					// Reboot the crashed store from its own disk.
					dir := dut.Dir()
					dut.Close()
					dut, _, err = OpenNode(dir, dutOpts)
					if err != nil {
						t.Fatalf("step %d: reopen: %v", step, err)
					}
					if !durable {
						// The op died before its record was durable — it
						// never happened, and was never acknowledged. Redo.
						if err := dut.LogCommit("Uniform", commit); err != nil {
							t.Fatal(err)
						}
					}
					if err := ctl.LogCommit("Uniform", commit); err != nil {
						t.Fatal(err)
					}
					cur[shard] = next
					compareStates(t, dut, ctl)
				}
			}

			// Final check across one more clean reboot of both.
			dDir, cDir := dut.Dir(), ctl.Dir()
			dut.Close()
			ctl.Close()
			dut, _, err = OpenNode(dDir, dutOpts)
			if err != nil {
				t.Fatal(err)
			}
			ctl, _, err = OpenNode(cDir, ctlOpts)
			if err != nil {
				t.Fatal(err)
			}
			compareStates(t, dut, ctl)
		})
	}
}

// A torn snapshot under the real name is refused by name and the store
// starts empty — an honest refusal the coordinator repairs by
// re-installing, never a guess.
func TestNodeTornSnapshotStartsEmpty(t *testing.T) {
	h := hashx.New()
	set := buildSet(t, h, 24, 2)
	dir := t.TempDir()
	opts := Options{Hasher: h, SnapshotEvery: -1}
	ns, _, err := OpenNode(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	install(t, ns, "Uniform", set)
	if err := ns.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ns.Close()

	snapPath := filepath.Join(dir, "node.snap")
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ns2, rep, err := OpenNode(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ns2.Close()
	if !errors.Is(rep.SnapshotErr, ErrSnapshotTorn) {
		t.Fatalf("corrupt snapshot reported %v, want ErrSnapshotTorn", rep.SnapshotErr)
	}
	if len(ns2.Recovered()) != 0 {
		t.Fatal("corrupt snapshot produced state instead of an honest refusal")
	}
}

// A crashed snapshot writer's temp file is never authoritative: it is
// ignored and removed at open, and the WAL remains the truth.
func TestNodeSnapshotTmpLeftoverIgnored(t *testing.T) {
	h := hashx.New()
	set := buildSet(t, h, 12, 1)
	dir := t.TempDir()
	opts := Options{Hasher: h, SnapshotEvery: -1}
	ns, _, err := OpenNode(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	install(t, ns, "Uniform", set)
	ns.Close()

	tmp := filepath.Join(dir, "node.snap.tmp")
	if err := os.WriteFile(tmp, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	ns2, rep, err := OpenNode(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ns2.Close()
	if rep.SnapshotErr != nil || rep.Replayed != 1 {
		t.Fatalf("tmp leftover disturbed recovery: %+v", rep)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("tmp leftover not removed at open")
	}
	if len(ns2.Recovered()["Uniform"].Shards) != 1 {
		t.Fatal("WAL state lost")
	}
}

// A CRC-valid but undecodable record (version skew, silent corruption
// past the checksum) refuses the record and everything after it.
func TestNodeUndecodableRecordStopsReplay(t *testing.T) {
	h := hashx.New()
	set := buildSet(t, h, 12, 1)
	dir := t.TempDir()
	opts := Options{Hasher: h, SnapshotEvery: -1}
	ns, _, err := OpenNode(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	install(t, ns, "Uniform", set)
	ns.Close()

	f, err := os.OpenFile(filepath.Join(dir, "node.wal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendWALFrame(f, []byte("not a gob record")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ns2, rep, err := OpenNode(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ns2.Close()
	if !errors.Is(rep.TornTail, ErrWALTorn) || rep.Replayed != 1 {
		t.Fatalf("undecodable record: torn=%v replayed=%d, want ErrWALTorn/1", rep.TornTail, rep.Replayed)
	}
	if len(ns2.Recovered()["Uniform"].Shards) != 1 {
		t.Fatal("records before the undecodable one were lost")
	}
}

// LogCommit's full-slice fallback: with no prior slice to diff from,
// the record carries the whole successor and replays exactly.
func TestNodeCommitFullSliceFallback(t *testing.T) {
	h := hashx.New()
	set := buildSet(t, h, 12, 1)
	dir := t.TempDir()
	opts := Options{Hasher: h, SnapshotEvery: -1}
	ns, _, err := OpenNode(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	install(t, ns, "Uniform", set)
	next := evolve(t, h, set.Slices[0], len(set.Slices[0].Recs)/2, []byte("fallback-payload"))
	postDg := partition.SliceDigest(h, next)
	// Old nil forces the FullSnap path — the probe cannot round-trip.
	if err := ns.LogCommit("Uniform", []CommitShard{{Shard: 0, Old: nil, New: next, PostDigest: postDg}}); err != nil {
		t.Fatal(err)
	}
	ns.Close()

	ns2, rep, err := OpenNode(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ns2.Close()
	if len(rep.Refused) != 0 {
		t.Fatalf("full-slice commit refused on replay: %v", rep.Refused)
	}
	sh := ns2.Recovered()["Uniform"].Shards[0]
	if sh.Deltas != 1 || !partition.SliceDigest(h, sh.Slice).Equal(postDg) {
		t.Fatal("full-slice fallback did not replay to the committed state")
	}
}

// A data dir written before record format 1 holds slices this build
// cannot verify. OpenNode refuses it by name, whether the old slice sits
// in the WAL or in the snapshot, and writes nothing: no refusal reaches
// the serving layer's RecoverHosted, whose refusals are durable removes.
func TestNodeRefusesOldFormatDataDir(t *testing.T) {
	h := hashx.New()
	set := buildSet(t, h, 12, 2)
	old := set.Slices[0].Clone()
	old.Params.Format = 0 // as a gob file from before the field existed decodes
	for _, snapshot := range []bool{false, true} {
		dir := t.TempDir()
		ns, _, err := OpenNode(dir, Options{Hasher: h, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := ns.LogInstall("Uniform", set.Spec, 0, old, partition.SliceDigest(h, old)); err != nil {
			t.Fatal(err)
		}
		if snapshot {
			if err := ns.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		ns.Close()
		before := dirBytes(t, dir)
		if _, _, err := OpenNode(dir, Options{Hasher: h, SnapshotEvery: -1}); !errors.Is(err, core.ErrRecordFormat) {
			t.Fatalf("snapshot=%v: open = %v, want core.ErrRecordFormat", snapshot, err)
		}
		if after := dirBytes(t, dir); after != before {
			t.Fatalf("snapshot=%v: refused open changed the data dir", snapshot)
		}
	}
}

// dirBytes is every file of dir with its contents, as one string.
func dirBytes(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out string
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out += e.Name() + "\x00" + string(b) + "\x00"
	}
	return out
}
