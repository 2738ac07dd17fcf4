package cluster_test

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/cluster"
	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/server"
	"vcqr/internal/store"
	"vcqr/internal/verify"
	"vcqr/internal/wire"
	"vcqr/internal/workload"
)

// durableNode is one shard node backed by a disk store, with enough
// handles to SIGKILL it (drop everything without flushing) and restart
// it from the same directory.
type durableNode struct {
	s  *server.Server
	ts *httptest.Server
	ns *store.NodeStore
}

func openDurableNode(t *testing.T, h *hashx.Hasher, dir string, crash *store.Crasher) (*durableNode, *store.LoadReport, *server.RecoverReport) {
	t.Helper()
	ns, lrep, err := store.OpenNode(dir, store.Options{Hasher: h, SnapshotEvery: -1, Crash: crash})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{
		Hasher: h, Pub: signKey(t).Public(),
		Policy: accessctl.NewPolicy(accessctl.Role{Name: "all"}),
		Store:  ns,
	})
	rrep, err := s.RecoverHosted()
	if err != nil {
		t.Fatal(err)
	}
	return &durableNode{s: s, ts: httptest.NewServer(s.Handler()), ns: ns}, lrep, rrep
}

func (n *durableNode) kill() {
	n.ts.Close()
	n.s.Close()
	n.ns.Close()
}

// coordOver builds a coordinator over the given node URLs for an
// already-signed publication.
func coordOver(t *testing.T, h *hashx.Hasher, sr *core.SignedRelation, spec partition.Spec, urls []string, clog *store.CoordLog) *cluster.Coordinator {
	t.Helper()
	coord, err := cluster.New(cluster.Config{
		Hasher: h, Pub: signKey(t).Public(),
		Params: sr.Params, Schema: sr.Schema,
		Policy: accessctl.NewPolicy(accessctl.Role{Name: "all"}),
		Spec:   spec, Nodes: urls, Log: clog,
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

func buildSigned(t *testing.T, h *hashx.Hasher, n, k int) (*core.SignedRelation, *partition.Set) {
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
	return sr, set
}

func mintDeltaOn(t *testing.T, h *hashx.Hasher, owner *core.SignedRelation, idx int, payload []byte) delta.Delta {
	t.Helper()
	before := owner.Clone()
	rec := owner.Recs[idx]
	if _, err := owner.UpdateAttrs(h, signKey(t), rec.Key(), rec.Tuple.RowID,
		[]relation.Value{relation.BytesVal(payload)}); err != nil {
		t.Fatal(err)
	}
	return delta.Diff(before, owner)
}

func verifyShardStream(t *testing.T, h *hashx.Hasher, sr *core.SignedRelation, spec partition.Spec, url string, q engine.Query) int {
	t.Helper()
	role := accessctl.Role{Name: "all"}
	v := verify.New(h, signKey(t).Public(), sr.Params, sr.Schema)
	sv, err := v.NewShardStreamVerifier(spec, q, role)
	if err != nil {
		t.Fatal(err)
	}
	cl := &wire.Client{BaseURL: url}
	rows := 0
	if _, err := cl.QueryStreamWith(sv, "all", q, 8, func(engine.Row) error {
		rows++
		return nil
	}); err != nil {
		t.Fatalf("stream rejected by unmodified verifier: %v", err)
	}
	return rows
}

// TestClusterCrashRecoveryMatrix is the durability acceptance: a node
// is killed at each of the five crash points around a committed delta
// (or the log compaction after one), restarted from its data
// directory with ZERO slices re-transferred, adopted by a fresh
// coordinator via Recover, and must then serve a merged stream that is
// byte-identical to an untouched control cluster's — pre-delta state
// when the crash beat the WAL append, post-delta state when the record
// was durable — under the UNMODIFIED shard stream verifier.
func TestClusterCrashRecoveryMatrix(t *testing.T) {
	h := hashx.New()
	sr, set := buildSigned(t, h, 96, 3)
	q := engine.Query{Relation: "Uniform"}
	req := wire.StreamRequest{Role: "all", Query: q, ChunkRows: 8}

	// One global record interior to shard 1, the delta's target.
	sl1 := set.Slices[1]
	mid := sl1.Recs[len(sl1.Recs)/2]
	midIdx := -1
	for i, rec := range sr.Recs {
		if rec.Key() == mid.Key() && rec.Tuple.RowID == mid.Tuple.RowID {
			midIdx = i
		}
	}
	if midIdx < 0 {
		t.Fatal("target record not found in the master chain")
	}

	for _, p := range store.CrashPoints {
		t.Run(p.String(), func(t *testing.T) {
			// Control cluster: memory-only node, never crashed.
			ctlSrv := server.New(server.Config{
				Hasher: h, Pub: signKey(t).Public(),
				Policy: accessctl.NewPolicy(accessctl.Role{Name: "all"}),
			})
			defer ctlSrv.Close()
			ctlTS := httptest.NewServer(ctlSrv.Handler())
			defer ctlTS.Close()
			ctlCoord := coordOver(t, h, sr, set.Spec, []string{ctlTS.URL}, nil)
			defer ctlCoord.Close()
			if err := ctlCoord.Place(set); err != nil {
				t.Fatal(err)
			}
			ctlFront := httptest.NewServer(ctlCoord.Handler())
			defer ctlFront.Close()

			// Device under test: a durable node.
			dir := t.TempDir()
			crash := &store.Crasher{}
			node, _, _ := openDurableNode(t, h, dir, crash)
			coord := coordOver(t, h, sr, set.Spec, []string{node.ts.URL}, nil)
			if err := coord.Place(set); err != nil {
				t.Fatal(err)
			}
			front := httptest.NewServer(coord.Handler())

			preBytes := streamBody(t, ctlFront.URL, req)
			if got := streamBody(t, front.URL, req); !bytes.Equal(got, preBytes) {
				t.Fatal("durable and control clusters diverge before any crash")
			}

			owner := sr.Clone()
			d := mintDeltaOn(t, h, owner, midIdx, []byte("crash-matrix-v2"))
			durable := false
			switch p {
			case store.CrashBeforeAppend, store.CrashMidRecord, store.CrashAfterAppend:
				// The injected death hits the node's commit append: the
				// coordinator must see the delta refused either way.
				crash.Arm(p)
				if _, err := coord.ApplyDelta(d); err == nil {
					t.Fatal("delta acknowledged although the commit log append died")
				}
				durable = p == store.CrashAfterAppend
			case store.CrashBeforeRename, store.CrashAfterRename:
				// The delta commits cleanly; the death hits the log's
				// compaction afterwards.
				if _, err := coord.ApplyDelta(d); err != nil {
					t.Fatal(err)
				}
				crash.Arm(p)
				if err := node.ns.Snapshot(); !errors.Is(err, store.ErrCrash) {
					t.Fatalf("armed snapshot returned %v", err)
				}
				durable = true
			}

			// SIGKILL the node and its control plane; restart from disk.
			front.Close()
			coord.Close()
			node.kill()
			node2, lrep, rrep := openDurableNode(t, h, dir, crash)
			defer node2.kill()
			if p == store.CrashMidRecord && !errors.Is(lrep.TornTail, store.ErrWALTorn) {
				t.Fatalf("mid-record crash not reported as torn tail: %v", lrep.TornTail)
			}
			if p == store.CrashAfterRename && (lrep.Replayed != 3 || len(lrep.Refused) != 0) {
				// The compacted log alone replays: one record per slice.
				t.Fatalf("compacted log replay off: %+v", lrep)
			}
			if len(rrep.Refused) != 0 || len(rrep.Published) != 3 {
				t.Fatalf("recovery published %v refused %v, want all 3 slices", rrep.Published, rrep.Refused)
			}
			// The zero-re-transfer claim: every slice came off the WAL.
			if st := node2.s.Stats(); st.Installs != 0 {
				t.Fatalf("restart re-transferred %d slices", st.Installs)
			}

			coord2 := coordOver(t, h, sr, set.Spec, []string{node2.ts.URL}, nil)
			defer coord2.Close()
			if _, err := coord2.Recover(); err != nil {
				t.Fatalf("coordinator adoption of the recovered node: %v", err)
			}
			front2 := httptest.NewServer(coord2.Handler())
			defer front2.Close()

			expected := preBytes
			if durable {
				// The record was durable, so recovery yields the
				// post-delta state — the control gets there by actually
				// committing.
				if _, err := ctlCoord.ApplyDelta(d); err != nil {
					t.Fatal(err)
				}
				expected = streamBody(t, ctlFront.URL, req)
			}
			if got := streamBody(t, front2.URL, req); !bytes.Equal(got, expected) {
				t.Fatalf("recovered stream differs from control after %s crash", p)
			}
			if rows := verifyShardStream(t, h, sr, set.Spec, front2.URL, q); rows != 96 {
				t.Fatalf("verified %d rows, want 96", rows)
			}

			if !durable {
				// The refused delta was lost honestly; re-ingesting it on
				// the recovered cluster must succeed — over the WAL, not a
				// re-transfer.
				if _, err := coord2.ApplyDelta(d); err != nil {
					t.Fatalf("re-applying the lost delta after recovery: %v", err)
				}
				if _, err := ctlCoord.ApplyDelta(d); err != nil {
					t.Fatal(err)
				}
				if got := streamBody(t, front2.URL, req); !bytes.Equal(got, streamBody(t, ctlFront.URL, req)) {
					t.Fatal("post-recovery delta diverged from control")
				}
				if st := node2.s.Stats(); st.Installs != 0 {
					t.Fatalf("post-recovery delta re-transferred %d slices", st.Installs)
				}
			}
		})
	}
}

// TestRecoverUsesPersistedRoutingLog pins the regression the durable
// coordinator log fixes: two replicas of a shard with byte-identical
// content but divergent histories (one took the replica-set's deltas,
// the other is a fresh re-add with no writes since install). Node-order
// adoption guesses the fresh copy as primary; the persisted routing
// table names the true one. Before the log existed there was no right
// answer on restart.
func TestRecoverUsesPersistedRoutingLog(t *testing.T) {
	logDir := t.TempDir()
	clog, _, err := store.OpenCoord(logDir, store.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := newClusterCfg(t, 48, 1, 2, nil, func(cfg *cluster.Config) { cfg.Log = clog })
	urlA, urlB := f.urls[0], f.urls[1]

	// Grow to R=2, then write: both copies take the delta and stay
	// digest-identical.
	if err := f.coord.AddReplica(0, urlB); err != nil {
		t.Fatal(err)
	}
	sl := f.set.Slices[0]
	mid := sl.Recs[len(sl.Recs)/2]
	d := f.mintDelta(f.globalIndexOf(mid.Key(), mid.Tuple.RowID), []byte("written-once"))
	if _, err := f.coord.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	// Promote B: drop A and re-add it. A's copy is now a fresh install
	// (digest == install digest, zero deltas); B carries the write
	// history. The routing table [B, A] is persisted.
	if err := f.coord.DropReplica(0, urlA); err != nil {
		t.Fatal(err)
	}
	if err := f.coord.AddReplica(0, urlA); err != nil {
		t.Fatal(err)
	}
	f.coord.Close()
	clog.Close()

	// Restart WITHOUT the log: configured node order adopts A — the
	// copy with no write history — as primary. This is the guess the
	// log replaces (kept here as the regression's "before" picture).
	bare := coordOver(t, f.h, f.owner, f.spec, f.urls, nil)
	rep, err := bare.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Assigned[0] != urlA {
		t.Fatalf("node-order adoption picked %s; fixture no longer exercises the guess", rep.Assigned[0])
	}
	bare.Close()

	// Restart WITH the log: the persisted table is the deterministic
	// lookup — primary B, replica A, nothing ambiguous.
	clog2, crep, err := store.OpenCoord(logDir, store.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer clog2.Close()
	if crep.RoutingEpoch == 0 {
		t.Fatal("routing epochs were not persisted")
	}
	logged := coordOver(t, f.h, f.owner, f.spec, f.urls, clog2)
	defer logged.Close()
	rep2, err := logged.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Assigned[0] != urlB {
		t.Fatalf("logged adoption picked %s as primary, want %s (the persisted primary)", rep2.Assigned[0], urlB)
	}
	if len(rep2.Replicas[0]) != 2 || rep2.Replicas[0][0] != urlB {
		t.Fatalf("replica set %v, want primary-first [%s %s]", rep2.Replicas[0], urlB, urlA)
	}
	if len(rep2.Ambiguous) != 0 || len(rep2.Diverged) != 0 {
		t.Fatalf("identical copies misreported: %+v", rep2)
	}
}

// TestCoordinatorStagedTokenBracket: a delta whose commit fan-out never
// ran still resolves its durable bracket — a commit interrupted between
// begin and end surfaces the relation in the next Recover's OpenStaged
// exactly once.
func TestCoordinatorStagedTokenBracket(t *testing.T) {
	logDir := t.TempDir()
	clog, _, err := store.OpenCoord(logDir, store.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := newClusterCfg(t, 48, 2, 2, nil, func(cfg *cluster.Config) { cfg.Log = clog })
	sl := f.set.Slices[0]
	mid := sl.Recs[len(sl.Recs)/2]
	d := f.mintDelta(f.globalIndexOf(mid.Key(), mid.Tuple.RowID), []byte("bracketed-delta"))
	if _, err := f.coord.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	// A completed delta leaves no open bracket.
	if n := len(clog.OpenStaged()); n != 0 {
		t.Fatalf("%d staged transactions open after a clean commit", n)
	}
	// Simulate dying inside the fan-out: write the begin by hand, as
	// the crashed incarnation would have.
	if err := clog.LogStagedBegin("Uniform", map[string]uint64{f.urls[0]: 1}); err != nil {
		t.Fatal(err)
	}
	f.coord.Close()
	clog.Close()

	clog2, crep, err := store.OpenCoord(logDir, store.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer clog2.Close()
	if len(crep.OpenStaged) != 1 || crep.OpenStaged[0] != "Uniform" {
		t.Fatalf("open staged after restart: %v", crep.OpenStaged)
	}
	next := coordOver(t, f.h, f.owner, f.spec, f.urls, clog2)
	defer next.Close()
	rep, err := next.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OpenStaged) != 1 || rep.OpenStaged[0] != "Uniform" {
		t.Fatalf("Recover did not surface the open bracket: %+v", rep)
	}
	// Recover closed it: a second recovery sees nothing.
	rep, err = next.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OpenStaged) != 0 {
		t.Fatalf("bracket not closed after Recover: %v", rep.OpenStaged)
	}
}
