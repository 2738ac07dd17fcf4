package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
	"vcqr/internal/wire"
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
	if st := ns2.Stats(); st.ColdStarts != 1 || st.Pending != 4 {
		t.Fatalf("stats off: %+v", st)
	}
}

// An automatic compaction rewrites the log as one slice record per
// hosted shard; the next cold start replays exactly those records.
func TestNodeAutoSnapshotCompaction(t *testing.T) {
	h := hashx.New()
	set := buildSet(t, h, 24, 2)
	dir := t.TempDir()
	opts := Options{Hasher: h, SnapshotEvery: 2}
	ns, _, err := OpenNode(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	install(t, ns, "Uniform", set) // 2 appends → compaction fires
	if st := ns.Stats(); st.Snapshots != 1 || st.Pending != 0 {
		t.Fatalf("auto compaction did not fire: %+v", st)
	}
	data, err := os.ReadFile(filepath.Join(dir, "node.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if recs, _, torn, err := scanWAL(data, int64(len(wire.FileHeader(nodeMagic)))); torn != nil || err != nil || len(recs) != 2 {
		t.Fatalf("compacted log holds %d records (torn: %v, corrupt: %v), want one per shard", len(recs), torn, err)
	}
	ns.Close()

	ns2, rep, err := OpenNode(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ns2.Close()
	if rep.Replayed != 2 || rep.TornTail != nil || len(rep.Refused) != 0 {
		t.Fatalf("cold start from the compacted log off: %+v", rep)
	}
	if rec := ns2.Recovered()["Uniform"]; len(rec.Shards) != 2 {
		t.Fatalf("recovered %d shards from the compacted log, want 2", len(rec.Shards))
	}
}

// The crash matrix: one injected death at each of the five points, then
// a cold start. Before-append and mid-record crashes recover the
// pre-operation state (the record never became durable — and was never
// acknowledged); after-append recovers the post-operation state (the
// record was durable even though the caller never heard success);
// either side of the compaction's rename recovers the committed state
// exactly — from the old log before it, the compacted one after it.
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
				// The half-finished rewrite must be gone, not adopted: the
				// old log (2 installs + the commit) replays.
				if _, err := os.Stat(filepath.Join(dir, "node.wal.tmp")); !os.IsNotExist(err) {
					t.Fatal("leftover compaction temp file survived recovery")
				}
				if rep.Replayed != 3 {
					t.Fatalf("unrenamed compaction was adopted: replayed %d records, want the old log's 3", rep.Replayed)
				}
			case CrashAfterRename:
				// The compacted log replaced the old one before the handle
				// was reopened: it alone replays, one record per shard, to
				// exactly what an uncrashed store holds.
				if rep.Replayed != 2 || len(rep.Refused) != 0 {
					t.Fatalf("compacted log: replayed %d refused %v, want its 2 records and nothing refused", rep.Replayed, rep.Refused)
				}
				ctl, _, err := OpenNode(t.TempDir(), Options{Hasher: h, SnapshotEvery: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer ctl.Close()
				install(t, ctl, "Uniform", set)
				if err := ctl.LogCommit("Uniform", commit); err != nil {
					t.Fatal(err)
				}
				compareStates(t, ns2, ctl)
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

// A damaged compacted log: a two-shard node compacted to one slice record
// per shard, then the log cut mid-record or a byte flipped inside one
// record. A cut, and a flip in the last record, is a tear: recovery keeps
// exactly the slices before the damage, names the tear ErrWALTorn, and
// never panics. A flip in the first record has a whole record after it,
// so the open refuses the log (ErrWALCorrupt) and leaves the data dir as
// it was.
func TestNodeTornCompactedLog(t *testing.T) {
	h := hashx.New()
	set := buildSet(t, h, 24, 2)
	opts := Options{Hasher: h, SnapshotEvery: -1}
	src := t.TempDir()
	ns, _, err := OpenNode(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	install(t, ns, "Uniform", set)
	if err := ns.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ns.Close()
	img, err := os.ReadFile(filepath.Join(src, "node.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var starts []int
	for off := len(wire.FileHeader(nodeMagic)); off < len(img); off += walHeaderLen + int(binary.BigEndian.Uint32(img[off:])) {
		starts = append(starts, off)
	}
	if len(starts) != 2 {
		t.Fatalf("compacted log holds %d records, want one per shard", len(starts))
	}
	ends := append(starts[1:], len(img))
	for r := range starts {
		flipped := append([]byte(nil), img...)
		flipped[(starts[r]+walHeaderLen+ends[r])/2] ^= 0x10
		for name, data := range map[string][]byte{
			fmt.Sprintf("cut-record-%d", r):  img[:(starts[r]+ends[r])/2],
			fmt.Sprintf("flip-record-%d", r): flipped,
		} {
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, "node.wal"), data, 0o644); err != nil {
					t.Fatal(err)
				}
				if strings.HasPrefix(name, "flip") && r < len(starts)-1 {
					before := dirBytes(t, dir)
					if _, _, err := OpenNode(dir, opts); !errors.Is(err, ErrWALCorrupt) {
						t.Fatalf("flip with a record after it: open = %v, want ErrWALCorrupt", err)
					}
					if dirBytes(t, dir) != before {
						t.Fatal("refused open changed the data dir")
					}
					return
				}
				ns2, rep, err := OpenNode(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer ns2.Close()
				if !errors.Is(rep.TornTail, ErrWALTorn) {
					t.Fatalf("damaged record reported %v, want ErrWALTorn", rep.TornTail)
				}
				if rep.Replayed != r || len(rep.Refused) != 0 {
					t.Fatalf("replayed %d refused %v, want the %d records before the damage", rep.Replayed, rep.Refused, r)
				}
				got := ns2.Recovered()["Uniform"].Shards
				if len(got) != r {
					t.Fatalf("recovered %d shards, want %d", len(got), r)
				}
				for i, sh := range got {
					if sh.Shard != i || !partition.SliceDigest(h, sh.Slice).Equal(partition.SliceDigest(h, set.Slices[i])) {
						t.Fatalf("recovered shard %d diverged from the one installed", sh.Shard)
					}
				}
			})
		}
	}
}

// A crashed rewrite's temp file is never authoritative: it is ignored
// and removed at open, and the log remains the truth — for the node log
// and the coordinator log alike.
func TestNodeSnapshotTmpLeftoverIgnored(t *testing.T) {
	h := hashx.New()
	set := buildSet(t, h, 12, 1)
	t.Run("node.wal.tmp", func(t *testing.T) {
		dir := t.TempDir()
		opts := Options{Hasher: h, SnapshotEvery: -1}
		ns, _, err := OpenNode(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		install(t, ns, "Uniform", set)
		ns.Close()

		tmp := filepath.Join(dir, "node.wal.tmp")
		if err := os.WriteFile(tmp, []byte("half-written garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		ns2, rep, err := OpenNode(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer ns2.Close()
		if rep.TornTail != nil || rep.Replayed != 1 {
			t.Fatalf("tmp leftover disturbed recovery: %+v", rep)
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatal("tmp leftover not removed at open")
		}
		if len(ns2.Recovered()["Uniform"].Shards) != 1 {
			t.Fatal("WAL state lost")
		}
	})
	t.Run("coord.wal.tmp", func(t *testing.T) {
		dir := t.TempDir()
		cl, _, err := OpenCoord(dir, CoordOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.LogRouting(3, [][]string{{"http://a"}}); err != nil {
			t.Fatal(err)
		}
		cl.Close()

		tmp := filepath.Join(dir, "coord.wal.tmp")
		if err := os.WriteFile(tmp, []byte("half-written garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		cl2, rep, err := OpenCoord(dir, CoordOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl2.Close()
		if rep.TornTail != nil || rep.Replayed != 1 || rep.RoutingEpoch != 3 {
			t.Fatalf("tmp leftover disturbed recovery: %+v", rep)
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatal("tmp leftover not removed at open")
		}
	})
}

// A CRC-valid but undecodable record (version skew, silent corruption
// past the checksum) stops replay at it: the open fails with
// ErrWALCorrupt naming the record and its offset, and writes nothing —
// replaying only the records before it would let later appends land
// after it and be lost at the next open.
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
	path := filepath.Join(dir, "node.wal")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendWALFrame(f, []byte("not a gob record")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	before := dirBytes(t, dir)
	_, _, err = OpenNode(dir, opts)
	var c *walCorrupt
	if !errors.Is(err, ErrWALCorrupt) || !errors.As(err, &c) || c.index != 1 || c.offset != fi.Size() {
		t.Fatalf("undecodable record: open = %v, want ErrWALCorrupt naming record 1 at offset %d", err, fi.Size())
	}
	if dirBytes(t, dir) != before {
		t.Fatal("refused open changed the data dir")
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
	// Old nil forces the full-slice path — the probe cannot round-trip.
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

// Three data dirs this build cannot read are refused by name, and the
// refused open writes nothing: no refusal reaches the serving layer's
// RecoverHosted, whose refusals are durable removes. A slice signed in
// an older record format — before format 1, or in format 1, whose g
// folded both chain digests — cannot be verified, whether it sits in an
// install record or in a compacted log's slice record (core.ErrRecordFormat);
// a node.snap beside the WAL is the compaction image of an older build,
// which this one never reads (ErrLegacySnapshot); and a node or
// coordinator log of an earlier build, whose records were gob, has no
// header (wire.ErrFileFormat).
func TestNodeRefusesOldFormatDataDir(t *testing.T) {
	h := hashx.New()
	set := buildSet(t, h, 12, 2)
	old := set.Slices[0].Clone()
	old.Params.Format = 0 // as a gob file from before the field existed decodes
	format1 := set.Slices[0].Clone()
	format1.Params.Format = 1 // g folded both chain digests; no record carried C
	for i := range format1.Recs {
		format1.Own(i).Combined = nil
	}
	for _, tc := range []struct {
		name       string
		slice      *core.SignedRelation
		compact    bool
		legacySnap bool
		want       error
	}{
		{"install-record", old, false, false, core.ErrRecordFormat},
		{"compacted-log", old, true, false, core.ErrRecordFormat},
		{"format-1 install-record", format1, false, false, core.ErrRecordFormat},
		{"format-1 compacted-log", format1, true, false, core.ErrRecordFormat},
		{"node.snap", set.Slices[0], false, true, ErrLegacySnapshot},
	} {
		dir := t.TempDir()
		ns, _, err := OpenNode(dir, Options{Hasher: h, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := ns.LogInstall("Uniform", set.Spec, 0, tc.slice, partition.SliceDigest(h, tc.slice)); err != nil {
			t.Fatal(err)
		}
		if tc.compact {
			if err := ns.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		ns.Close()
		if tc.legacySnap {
			if err := os.WriteFile(filepath.Join(dir, "node.snap"), []byte("vcqr-store-snap-1\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before := dirBytes(t, dir)
		if _, _, err := OpenNode(dir, Options{Hasher: h, SnapshotEvery: -1}); !errors.Is(err, tc.want) {
			t.Fatalf("%s: open = %v, want %v", tc.name, err, tc.want)
		}
		if after := dirBytes(t, dir); after != before {
			t.Fatalf("%s: refused open changed the data dir", tc.name)
		}
	}

	// The logs of the build before this one's codec: no header, then
	// CRC-framed gob records, which gob matches by field name.
	type gobInstall struct {
		Relation      string
		Spec          partition.Spec
		Shard         int
		InstallDigest hashx.Digest
		Deltas        uint64
		Snap          []byte
	}
	type gobRouting struct {
		Epoch uint64
		Route [][]string
	}
	gobFrame := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return frames(buf.Bytes())
	}
	snap := bytes.NewBufferString("vcqr-snapshot-1\n")
	if err := gob.NewEncoder(snap).Encode(struct{ Relation *core.SignedRelation }{set.Slices[0]}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, file string
		log        []byte
		open       func(dir string) error
	}{
		{"gob node.wal", "node.wal", gobFrame(struct{ Install *gobInstall }{&gobInstall{Relation: "Uniform", Spec: set.Spec,
			InstallDigest: partition.SliceDigest(h, set.Slices[0]), Snap: snap.Bytes()}}),
			func(dir string) error { _, _, err := OpenNode(dir, Options{Hasher: h}); return err }},
		{"gob coord.wal", "coord.wal", gobFrame(struct{ Routing *gobRouting }{&gobRouting{Epoch: 3, Route: [][]string{{"http://a"}}}}),
			func(dir string) error { _, _, err := OpenCoord(dir, CoordOptions{}); return err }},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, tc.file), tc.log, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, dir)
		if err := tc.open(dir); !errors.Is(err, wire.ErrFileFormat) {
			t.Fatalf("%s: open = %v, want wire.ErrFileFormat", tc.name, err)
		}
		if after := dirBytes(t, dir); after != before {
			t.Fatalf("%s: refused open changed the data dir", tc.name)
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

// A compacted log has one encoding: a store compacted, reopened from that
// log and compacted again writes the very same bytes.
func TestNodeCompactionIsDeterministic(t *testing.T) {
	h := hashx.New()
	set := buildSet(t, h, 24, 3)
	dir := t.TempDir()
	opts := Options{Hasher: h, SnapshotEvery: -1}
	ns, _, err := OpenNode(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	install(t, ns, "Uniform", set)
	old := set.Slices[1]
	next := evolve(t, h, old, len(old.Recs)/2, []byte("compacted-payload"))
	if err := ns.LogCommit("Uniform", []CommitShard{{Shard: 1, Old: old, New: next, PostDigest: partition.SliceDigest(h, next)}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "node.wal")
	var logs [2][]byte
	for i := range logs {
		if err := ns.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if logs[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		ns.Close()
		if ns, _, err = OpenNode(dir, opts); err != nil {
			t.Fatal(err)
		}
	}
	defer ns.Close()
	if !bytes.Equal(logs[0], logs[1]) {
		t.Fatalf("compacted twice, the log is %d then %d bytes, not the same bytes", len(logs[0]), len(logs[1]))
	}
	if sh := ns.Recovered()["Uniform"].Shards[1]; sh.Deltas != 1 || !partition.SliceDigest(h, sh.Slice).Equal(partition.SliceDigest(h, next)) {
		t.Fatal("the compacted log lost the committed delta")
	}
}
