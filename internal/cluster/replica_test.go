package cluster_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/cluster"
	"vcqr/internal/engine"
	"vcqr/internal/obs"
	"vcqr/internal/server"
	"vcqr/internal/wire"
)

// newReplicaCluster is the replication fixture: nNodes nodes at R
// replicas per shard, the coordinator's node traffic routed through a
// fresh fault injector. A non-zero timeout bounds every coordinator→node
// exchange — required by Hang faults, whose only exit (besides Release)
// is the request deadline.
func newReplicaCluster(t *testing.T, n, k, nNodes, r int, timeout time.Duration, mod func(*cluster.Config)) (*fix, *cluster.Injector) {
	inj := cluster.NewInjector(nil)
	hc := &http.Client{Transport: inj, Timeout: timeout}
	f := newClusterCfg(t, n, k, nNodes, hc, func(cfg *cluster.Config) {
		cfg.Replicas = r
		if mod != nil {
			mod(cfg)
		}
	})
	return f, inj
}

// singleBaseline serves the same publication from one process and
// returns its raw /stream bytes — the byte-identity reference every
// failover case is compared against.
func singleBaseline(t *testing.T, f *fix, req wire.StreamRequest) []byte {
	t.Helper()
	single := server.New(server.Config{
		Hasher: f.h, Pub: signKey(t).Public(), Policy: accessctl.NewPolicy(f.role),
	})
	t.Cleanup(func() { single.Close() })
	if err := single.AddPartition(f.set, true); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(single.Handler())
	t.Cleanup(ts.Close)
	return streamBody(t, ts.URL, req)
}

// TestReplicaFailoverMatrix is the fault-injection acceptance table: at
// R=2, a sub-stream killed or hung at every protocol stage — connection,
// before the hello, mid-chunk, before the foot — must fail over to the
// sibling replica with the merged stream byte-identical to the
// single-process output and accepted by the unmodified verifier. A
// delay fault is the control row: slow is not dead, and must neither
// fail over nor quarantine.
func TestReplicaFailoverMatrix(t *testing.T) {
	f, inj := newReplicaCluster(t, 96, 3, 3, 2, 1500*time.Millisecond, nil)
	coordTS := httptest.NewServer(f.coord.Handler())
	defer coordTS.Close()

	q := engine.Query{Relation: "Uniform"} // full range: all 3 shards
	req := wire.StreamRequest{Role: "all", Query: q, ChunkRows: 8}
	want := singleBaseline(t, f, req)

	cases := []struct {
		name         string
		fault        cluster.Fault
		wantFailover bool
	}{
		{"kill-roundtrip", cluster.Fault{Stage: cluster.StageRoundTrip, Mode: cluster.Kill}, true},
		{"kill-before-hello", cluster.Fault{Stage: cluster.StageBeforeHello, Mode: cluster.Kill}, true},
		{"kill-mid-chunk", cluster.Fault{Stage: cluster.StageMidChunk, Mode: cluster.Kill}, true},
		{"kill-before-foot", cluster.Fault{Stage: cluster.StageBeforeFoot, Mode: cluster.Kill}, true},
		{"hang-roundtrip", cluster.Fault{Stage: cluster.StageRoundTrip, Mode: cluster.Hang}, true},
		{"hang-mid-chunk", cluster.Fault{Stage: cluster.StageMidChunk, Mode: cluster.Hang}, true},
		{"delay-mid-chunk", cluster.Fault{Stage: cluster.StageMidChunk, Mode: cluster.Delay, Delay: 30 * time.Millisecond}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer inj.Clear()
			before := f.coord.Stats().Failovers
			fired := inj.Fired()

			// One faulted raw-bytes run pins byte identity; one faulted
			// verified run pins acceptance by the unmodified verifier.
			fault := tc.fault
			fault.Path = "/shard/stream"
			fault.Times = 1
			inj.Set(fault)
			got := streamBody(t, coordTS.URL, req)
			if !bytes.Equal(got, want) {
				t.Fatalf("faulted stream (%d bytes) differs from single-process stream (%d bytes)", len(got), len(want))
			}
			inj.Set(fault)
			rows, err := f.verifyStream(coordTS.URL, q, 8)
			if err != nil {
				t.Fatalf("faulted stream rejected by unmodified verifier: %v", err)
			}
			if rows != 96 {
				t.Fatalf("verified %d rows, want 96", rows)
			}

			if inj.Fired() != fired+2 {
				t.Fatalf("fault fired %d times, want 2", inj.Fired()-fired)
			}
			delta := f.coord.Stats().Failovers - before
			if tc.wantFailover && delta < 2 {
				t.Fatalf("failovers moved by %d across two faulted queries, want >= 2", delta)
			}
			if !tc.wantFailover && delta != 0 {
				t.Fatalf("failovers moved by %d on a delay fault, want 0", delta)
			}
		})
	}
	if qn := f.coord.Stats().Quarantines; qn != 0 {
		t.Fatalf("crash/hang faults quarantined %d nodes; only Byzantine evidence may", qn)
	}
}

// TestReplicaNodeDeathZeroFailedQueries is the availability acceptance:
// at R=2 under live query load and owner ingest, a SIGKILL-equivalent
// node death (client connections severed, listener closed) causes zero
// failed queries — in-flight streams fail over, new queries route around
// the corpse, and the lapsed lease demotes it. Writes prefer refusal
// over divergence while the dead replica is still in the sets, and
// resume once the operator drops it.
func TestReplicaNodeDeathZeroFailedQueries(t *testing.T) {
	f, _ := newReplicaCluster(t, 96, 3, 3, 2, 0, func(cfg *cluster.Config) {
		cfg.LeaseTTL = 250 * time.Millisecond
	})
	coordTS := httptest.NewServer(f.coord.Handler())
	defer coordTS.Close()
	stopHB := f.coord.StartHeartbeats(60 * time.Millisecond)
	defer stopHB()

	q := engine.Query{Relation: "Uniform"}
	var stop atomic.Bool
	var failures, attempts atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				attempts.Add(1)
				if _, err := f.verifyStream(coordTS.URL, q, 8); err == nil {
					continue
				}
				// Bounded retry: a stream torn by a racing epoch bump
				// re-pins fresh; only a failed retry is a failed query.
				if _, err := f.verifyStream(coordTS.URL, q, 8); err != nil {
					t.Errorf("query failed after retry: %v", err)
					failures.Add(1)
					return
				}
			}
		}()
	}

	// Live ingest before the death.
	sl0 := f.set.Slices[0]
	if _, err := f.coord.ApplyDelta(f.mintDelta(f.globalIndexOf(sl0.Recs[3].Key(), sl0.Recs[3].Tuple.RowID), []byte("pre-kill"))); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)

	// SIGKILL equivalent: node 2 (primary of shard 2, backup of shard 1)
	// drops every connection and stops listening.
	dead := f.urls[2]
	f.srvs[2].CloseClientConnections()
	f.srvs[2].Close()

	// Writes now refuse rather than fork: the dead node is still in two
	// replica sets, and a delta that cannot reach every honest replica
	// must not commit anywhere.
	sl1 := f.set.Slices[1]
	d := f.mintDelta(f.globalIndexOf(sl1.Recs[3].Key(), sl1.Recs[3].Tuple.RowID), []byte("post-kill"))
	if _, err := f.coord.ApplyDelta(d); err == nil {
		t.Fatal("delta committed with a dead replica still in the write set")
	}

	// The lapsed lease demotes the corpse (lazily, on observation).
	deadline := time.Now().Add(5 * time.Second)
	for {
		state := ""
		for _, ns := range f.coord.NodeStats() {
			if ns.URL == dead {
				state = ns.State
			}
		}
		if state == cluster.NodeExpired {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead node never demoted (state %q)", state)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Operator repair: drop the dead replica from its sets; the exact
	// delta that was refused now lands.
	for shard, set := range f.coord.ReplicaSets() {
		for _, url := range set {
			if url == dead {
				if err := f.coord.DropReplica(shard, dead); err != nil {
					t.Fatalf("dropping dead replica of shard %d: %v", shard, err)
				}
			}
		}
	}
	if _, err := f.coord.ApplyDelta(d); err != nil {
		t.Fatalf("delta still refused after dropping the dead replica: %v", err)
	}

	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d queries failed through node death at R=2", failures.Load())
	}
	if attempts.Load() == 0 {
		t.Fatal("no queries ran")
	}
	st := f.coord.Stats()
	if st.Failovers == 0 {
		t.Fatal("node death caused no failovers — the dead replica was never routed to")
	}
	if st.Demotions == 0 {
		t.Fatal("lease lapse recorded no demotion")
	}

	// The surviving cluster serves the full, delta'd, verifying stream.
	rows, err := f.verifyStream(coordTS.URL, q, 8)
	if err != nil {
		t.Fatalf("post-death stream rejected: %v", err)
	}
	if rows != 96 {
		t.Fatalf("verified %d rows, want 96", rows)
	}
	res, err := collect(f.coord, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, row := range res.Rows() {
		for _, attr := range row.Values {
			if string(attr.Val.Bytes) == "post-kill" {
				found++
			}
		}
	}
	if found != 1 {
		t.Fatalf("re-applied delta payload present %d times, want exactly 1", found)
	}
}

// TestByzantineReplicaQuarantined: a replica whose sub-streams are
// corrupted (hello digest and seam material mutated in flight) must be
// caught by the seam check, attributed by its own control-plane
// self-contradiction, quarantined, and routed around — with the merged
// stream byte-identical to the single-process output and the unmodified
// verifier never seeing the corruption. Writes exclude the quarantined
// copy, and the drop → re-add → reinstate runbook restores it.
func TestByzantineReplicaQuarantined(t *testing.T) {
	f, inj := newReplicaCluster(t, 96, 3, 3, 2, 0, nil)
	coordTS := httptest.NewServer(f.coord.Handler())
	defer coordTS.Close()

	q := engine.Query{Relation: "Uniform"}
	req := wire.StreamRequest{Role: "all", Query: q, ChunkRows: 8}
	want := singleBaseline(t, f, req)

	// Node 1 (primary of shard 1) lies on every sub-stream it serves.
	liar := f.urls[1]
	inj.Set(cluster.Fault{
		Node: liar, Path: "/shard/stream",
		Stage: cluster.StageBeforeHello, Mode: cluster.Corrupt,
	})

	got := streamBody(t, coordTS.URL, req)
	if !bytes.Equal(got, want) {
		t.Fatalf("stream through a Byzantine replica (%d bytes) differs from single-process stream (%d bytes)", len(got), len(want))
	}
	rows, err := f.verifyStream(coordTS.URL, q, 8)
	if err != nil {
		t.Fatalf("stream rejected by unmodified verifier: %v", err)
	}
	if rows != 96 {
		t.Fatalf("verified %d rows, want 96", rows)
	}

	st := f.coord.Stats()
	if st.Quarantines != 1 {
		t.Fatalf("quarantines = %d, want exactly 1", st.Quarantines)
	}
	if st.HandoffRetries == 0 {
		t.Fatal("corrupted seam material caused no hand-off retry")
	}
	var liarStat cluster.NodeStat
	for _, ns := range f.coord.NodeStats() {
		if ns.URL == liar {
			liarStat = ns
		}
	}
	if liarStat.State != cluster.NodeQuarantined || liarStat.QuarantineReason == "" {
		t.Fatalf("liar node state %q (reason %q), want quarantined with a recorded reason", liarStat.State, liarStat.QuarantineReason)
	}
	// Quarantine drains; it does not delete — the sets still name the node.
	inSets := 0
	for _, set := range f.coord.ReplicaSets() {
		for _, url := range set {
			if url == liar {
				inSets++
			}
		}
	}
	if inSets == 0 {
		t.Fatal("quarantine removed the node from its replica sets; it must only drain it")
	}

	// A write while quarantined lands on the honest replicas only.
	sl1 := f.set.Slices[1]
	if _, err := f.coord.ApplyDelta(f.mintDelta(f.globalIndexOf(sl1.Recs[3].Key(), sl1.Recs[3].Tuple.RowID), []byte("while-quarantined"))); err != nil {
		t.Fatalf("delta refused while a replica is quarantined: %v", err)
	}
	if rows, err := f.verifyStream(coordTS.URL, q, 8); err != nil || rows != 96 {
		t.Fatalf("post-delta stream: rows=%d err=%v", rows, err)
	}

	// Runbook recovery: stop the corruption, drop and re-copy every
	// replica the node hosted (its copies missed the quarantined-era
	// delta and its mirror fixes), then reinstate.
	inj.Clear()
	for shard, set := range f.coord.ReplicaSets() {
		for _, url := range set {
			if url != liar {
				continue
			}
			if err := f.coord.DropReplica(shard, liar); err != nil {
				t.Fatalf("dropping shard %d from the quarantined node: %v", shard, err)
			}
			if err := f.coord.AddReplica(shard, liar); err != nil {
				t.Fatalf("re-adding shard %d to the repaired node: %v", shard, err)
			}
		}
	}
	if !f.coord.Reinstate(liar) {
		t.Fatal("Reinstate returned false for a quarantined node")
	}
	if f.coord.Reinstate(liar) {
		t.Fatal("Reinstate returned true for a node not quarantined")
	}

	// The reinstated cluster is fully convergent: every shard's replicas
	// hold digest-identical copies and the stream still verifies.
	for shard, set := range f.coord.ReplicaSets() {
		ref := wire.ShardRef{Relation: "Uniform", Shard: shard}
		var first wire.DigestResponse
		for i, url := range set {
			resp, err := (&wire.Client{BaseURL: url}).ShardDigest(ref)
			if err != nil {
				t.Fatalf("digest of shard %d at %s: %v", shard, url, err)
			}
			if i == 0 {
				first = resp
			} else if !resp.Digest.Equal(first.Digest) {
				t.Fatalf("shard %d replicas diverged after reinstate: %x vs %x", shard, first.Digest, resp.Digest)
			}
		}
	}
	if rows, err := f.verifyStream(coordTS.URL, q, 8); err != nil || rows != 96 {
		t.Fatalf("post-reinstate stream: rows=%d err=%v", rows, err)
	}
	if qn := f.coord.Stats().Quarantines; qn != 1 {
		t.Fatalf("quarantines = %d after recovery, want still 1", qn)
	}
}

// TestLeaseExpiryDemotesWithoutDroppingStreams drives the lease state
// machine on an injected clock: a node whose heartbeats fail is demoted
// exactly when its lease lapses — not a tick earlier — while a stream
// opened before the lapse keeps draining from it, new queries route to
// live siblings without a failover, and the next successful heartbeat
// promotes it back.
func TestLeaseExpiryDemotesWithoutDroppingStreams(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	f, inj := newReplicaCluster(t, 96, 3, 3, 2, 0, func(cfg *cluster.Config) {
		cfg.LeaseTTL = 10 * time.Second
		cfg.Clock = func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		}
	})

	f.coord.HeartbeatOnce()
	st := f.coord.Stats()
	if st.LeaseRenewals != 3 {
		t.Fatalf("lease renewals = %d after one round over 3 nodes, want 3", st.LeaseRenewals)
	}
	for _, ns := range f.coord.NodeStats() {
		if ns.State != cluster.NodeLive || ns.LeaseExpiry.IsZero() {
			t.Fatalf("node %s after grant: state %q expiry %v", ns.URL, ns.State, ns.LeaseExpiry)
		}
	}

	// A stream pinned while every lease is current; node 2 serves shard 2.
	q := engine.Query{Relation: "Uniform"}
	stream, err := f.coord.QueryStream("all", q, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := stream.Next(); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}

	// Node 2's heartbeats start failing; the others renew. Mid-TTL the
	// failing node is still live — a dropped heartbeat inside the TTL
	// costs nothing.
	inj.Set(cluster.Fault{Node: f.urls[2], Path: "/node/lease", Stage: cluster.StageRoundTrip, Mode: cluster.Kill})
	advance(6 * time.Second)
	f.coord.HeartbeatOnce()
	if got := nodeState(f.coord, f.urls[2]); got != cluster.NodeLive {
		t.Fatalf("node 2 state %q mid-TTL after one missed heartbeat, want live", got)
	}

	// Past the TTL it demotes — lazily, on the next observation.
	advance(5 * time.Second)
	if got := nodeState(f.coord, f.urls[2]); got != cluster.NodeExpired {
		t.Fatalf("node 2 state %q past its TTL, want expired", got)
	}
	if got := nodeState(f.coord, f.urls[0]); got != cluster.NodeLive {
		t.Fatalf("node 0 state %q with a current lease, want live", got)
	}
	if d := f.coord.Stats().Demotions; d != 1 {
		t.Fatalf("demotions = %d, want 1", d)
	}

	// New queries route around the demoted node by selection, not
	// failover: every shard still has a live replica.
	res, err := collect(f.coord, "all", q)
	if err != nil {
		t.Fatalf("query with a demoted node: %v", err)
	}
	if rows, err := f.v.VerifyResult(q, f.role, res); err != nil || len(rows) != 96 {
		t.Fatalf("query with a demoted node: rows=%d err=%v", len(rows), err)
	}
	if fo := f.coord.Stats().Failovers; fo != 0 {
		t.Fatalf("failovers = %d; demotion must reroute by selection, not failover", fo)
	}

	// The pre-expiry stream keeps draining from the demoted node:
	// demotion removes it from selection, never from service.
	chunks := 2
	for {
		_, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("in-flight stream dropped after demotion at chunk %d: %v", chunks, err)
		}
		chunks++
	}
	if chunks < 12 { // 96 rows at 8 per chunk, plus framing
		t.Fatalf("drained %d chunks, want the full stream", chunks)
	}

	// A successful heartbeat promotes it back.
	inj.Clear()
	advance(1 * time.Second)
	f.coord.HeartbeatOnce()
	if got := nodeState(f.coord, f.urls[2]); got != cluster.NodeLive {
		t.Fatalf("node 2 state %q after a renewed lease, want live", got)
	}
	if p := f.coord.Stats().Promotions; p != 1 {
		t.Fatalf("promotions = %d, want 1", p)
	}
}

// nodeState reads one node's lease state from the coordinator's stats.
func nodeState(c *cluster.Coordinator, url string) string {
	for _, ns := range c.NodeStats() {
		if ns.URL == url {
			return ns.State
		}
	}
	return ""
}

// TestReplicaDeltaWriteAll: at R=2 both delta shapes (interior and
// seam-crossing) must leave every shard's replicas digest-identical —
// the write-all fan-out plus cross-replica staging checks — and the
// published stream verifying with both payloads.
func TestReplicaDeltaWriteAll(t *testing.T) {
	f, _ := newReplicaCluster(t, 96, 3, 3, 2, 0, nil)

	sl1 := f.set.Slices[1]
	mid := sl1.Recs[len(sl1.Recs)/2]
	if _, err := f.coord.ApplyDelta(f.mintDelta(f.globalIndexOf(mid.Key(), mid.Tuple.RowID), []byte("interior-v2"))); err != nil {
		t.Fatalf("interior delta rejected: %v", err)
	}
	sl0 := f.set.Slices[0]
	edge := sl0.Recs[len(sl0.Recs)-2]
	if _, err := f.coord.ApplyDelta(f.mintDelta(f.globalIndexOf(edge.Key(), edge.Tuple.RowID), []byte("seam-v2"))); err != nil {
		t.Fatalf("seam-crossing delta rejected: %v", err)
	}

	for shard, set := range f.coord.ReplicaSets() {
		if len(set) != 2 {
			t.Fatalf("shard %d has %d replicas, want 2", shard, len(set))
		}
		ref := wire.ShardRef{Relation: "Uniform", Shard: shard}
		a, err := (&wire.Client{BaseURL: set[0]}).ShardDigest(ref)
		if err != nil {
			t.Fatal(err)
		}
		b, err := (&wire.Client{BaseURL: set[1]}).ShardDigest(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Digest.Equal(b.Digest) {
			t.Fatalf("shard %d replicas diverged after deltas: %x vs %x", shard, a.Digest, b.Digest)
		}
	}

	q := engine.Query{Relation: "Uniform"}
	res, err := collect(f.coord, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := f.v.VerifyResult(q, f.role, res)
	if err != nil {
		t.Fatalf("post-delta result rejected: %v", err)
	}
	if len(rows) != 96 {
		t.Fatalf("verified %d rows, want 96", len(rows))
	}
	found := 0
	for _, row := range res.Rows() {
		for _, attr := range row.Values {
			if s := string(attr.Val.Bytes); s == "interior-v2" || s == "seam-v2" {
				found++
			}
		}
	}
	if found != 2 {
		t.Fatalf("found %d updated payloads, want 2", found)
	}
}

// TestDeltaCommitFansOut: a delta's commits go to every node at once —
// with the commit to the node a serial loop would reach first hung, the
// other node's commit still lands before the hang is released. The
// delta's slow-log entry names all four phases.
func TestDeltaCommitFansOut(t *testing.T) {
	inj := cluster.NewInjector(nil)
	landed := make(chan struct{})
	ht := &hookTransport{path: wire.NodeTxRPC.Path, inner: inj, hook: func() { close(landed) }}
	f := newClusterCfg(t, 96, 3, 2, &http.Client{Transport: ht}, func(cfg *cluster.Config) { cfg.Replicas = 2 })
	f.coord.Obs().Slow.SetThreshold(time.Nanosecond)
	urls := slices.Sorted(slices.Values(f.urls))
	inj.Set(cluster.Fault{Node: urls[0], Path: wire.NodeTxRPC.Path, Mode: cluster.Hang, Times: 1})
	ht.armed.Store(true)

	done := make(chan error, 1)
	go func() {
		_, err := f.coord.ApplyDelta(f.interiorDelta("fan-out"))
		done <- err
	}()
	select {
	case <-landed:
	case err := <-done:
		t.Fatalf("delta returned before the hung commit was released: %v", err)
	case <-time.After(10 * time.Second):
		inj.Release()
		<-done
		t.Fatalf("the commit to %s waited on the hung commit to %s", urls[1], urls[0])
	}
	inj.Release()
	if err := <-done; err != nil {
		t.Fatalf("delta rejected: %v", err)
	}

	for _, e := range f.coord.Obs().Slow.Entries() {
		if e.Op != "delta" {
			continue
		}
		stages := map[string]bool{}
		for _, sd := range e.Stages {
			stages[sd.Stage] = true
		}
		for _, want := range []string{obs.StageDeltaPrepare, obs.StageDeltaMirror, obs.StageDeltaSeam, obs.StageDeltaCommit} {
			if !stages[want] {
				t.Fatalf("delta slow-log entry lacks stage %q: %+v", want, e.Stages)
			}
		}
		return
	}
	t.Fatal("no delta entry in the coordinator's slow log")
}

// TestDeltaPrepareFailureAbortsAll: a prepare that dies on one node fails
// the delta by that node's name while the other nodes' prepares run
// concurrently; every token that came back is aborted, no replica's
// published digest moves, and the same delta then applies cleanly.
func TestDeltaPrepareFailureAbortsAll(t *testing.T) {
	f, inj := newReplicaCluster(t, 96, 3, 3, 2, 0, nil)
	digests := func() map[string]string {
		out := map[string]string{}
		for shard, set := range f.coord.ReplicaSets() {
			for _, url := range set {
				dg, err := (&wire.Client{BaseURL: url}).ShardDigest(wire.ShardRef{Relation: "Uniform", Shard: shard})
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("%d@%s", shard, url)] = string(dg.Digest)
			}
		}
		return out
	}
	before := digests()

	// A seam-crossing update: ops for shards 0 and 1 reach every node.
	sl0 := f.set.Slices[0]
	edge := sl0.Recs[len(sl0.Recs)-2]
	d := f.mintDelta(f.globalIndexOf(edge.Key(), edge.Tuple.RowID), []byte("after-abort"))
	victim := f.coord.ReplicaSets()[1][0]
	inj.Set(cluster.Fault{Node: victim, Path: wire.NodeDeltaRPC.Path, Mode: cluster.Kill, Times: 1})
	_, err := f.coord.ApplyDelta(d)
	if !errors.Is(err, cluster.ErrInjectedKill) || !strings.Contains(err.Error(), "prepare on "+victim) {
		t.Fatalf("delta with a dead prepare: %v, want a prepare failure naming %s", err, victim)
	}
	if after := digests(); !maps.Equal(after, before) {
		t.Fatalf("a refused delta moved a replica:\nbefore %v\nafter  %v", before, after)
	}

	if _, err := f.coord.ApplyDelta(d); err != nil {
		t.Fatalf("the same delta after the abort: %v", err)
	}
	q := engine.Query{Relation: "Uniform"}
	res, err := collect(f.coord, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.v.VerifyResult(q, f.role, res); err != nil {
		t.Fatalf("post-delta result rejected: %v", err)
	}
	found := 0
	for _, row := range res.Rows() {
		for _, attr := range row.Values {
			if string(attr.Val.Bytes) == "after-abort" {
				found++
			}
		}
	}
	if found != 1 {
		t.Fatalf("payload present %d times, want 1", found)
	}
}

// TestAddDropReplica covers the membership operations: adding a replica
// copies the current content, duplicates are refused, dropping the
// primary promotes the sibling, and the last copy cannot be dropped.
func TestAddDropReplica(t *testing.T) {
	f := newCluster(t, 60, 3, 2, nil) // R=1: shard 1 lives alone on node 1
	coordTS := httptest.NewServer(f.coord.Handler())
	defer coordTS.Close()
	q := engine.Query{Relation: "Uniform"}

	if err := f.coord.AddReplica(1, f.urls[0]); err != nil {
		t.Fatalf("adding a replica: %v", err)
	}
	if err := f.coord.AddReplica(1, f.urls[0]); !errors.Is(err, cluster.ErrReplicaExists) {
		t.Fatalf("duplicate add: %v, want ErrReplicaExists", err)
	}
	sets := f.coord.ReplicaSets()
	if len(sets[1]) != 2 || sets[1][0] != f.urls[1] || sets[1][1] != f.urls[0] {
		t.Fatalf("replica set after add: %v", sets[1])
	}
	if rows, err := f.verifyStream(coordTS.URL, q, 8); err != nil || rows != 60 {
		t.Fatalf("stream after add: rows=%d err=%v", rows, err)
	}

	// Dropping the primary promotes the sibling and drains the copy.
	if err := f.coord.DropReplica(1, f.urls[1]); err != nil {
		t.Fatalf("dropping the primary: %v", err)
	}
	if got := f.coord.Stats().Routing[1]; got != f.urls[0] {
		t.Fatalf("shard 1 primary %s after drop, want promoted sibling %s", got, f.urls[0])
	}
	if hosted := f.nodes[1].Stats().Hosted["Uniform"]; len(hosted) != 0 {
		t.Fatalf("node 1 still hosts %d shards after the drop's drain", len(hosted))
	}
	if rows, err := f.verifyStream(coordTS.URL, q, 8); err != nil || rows != 60 {
		t.Fatalf("stream after drop: rows=%d err=%v", rows, err)
	}

	if err := f.coord.DropReplica(1, f.urls[0]); !errors.Is(err, cluster.ErrLastReplica) {
		t.Fatalf("dropping the last replica: %v, want ErrLastReplica", err)
	}
}

// TestConcurrentAddReplicaKeepsJoinedCopy drives the operator-retry
// race: two AddReplica calls for the same (shard, node) both pass the
// unlocked pre-check; the injector holds the first inside its transfer
// while the second copies and joins. The held call must then lose with
// ErrReplicaExists WITHOUT removing the copy the routing table now
// lists — the joined node keeps answering for the shard and the next
// write-all delta commits.
func TestConcurrentAddReplicaKeepsJoinedCopy(t *testing.T) {
	f, inj := newReplicaCluster(t, 60, 3, 2, 1, 0, nil)
	from := f.coord.Routing()[1]
	to := f.urls[0]
	if to == from {
		to = f.urls[1]
	}
	inj.Set(cluster.Fault{Node: from, Path: wire.ShardFetchEP.Path, Mode: cluster.Hang, Times: 1})
	loser := make(chan error, 1)
	go func() { loser <- f.coord.AddReplica(1, to) }()
	for deadline := time.Now().Add(10 * time.Second); inj.Fired() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first AddReplica never reached its transfer")
		}
	}

	if err := f.coord.AddReplica(1, to); err != nil {
		t.Fatalf("the second AddReplica: %v", err)
	}
	inj.Release()
	if err := <-loser; !errors.Is(err, cluster.ErrReplicaExists) {
		t.Fatalf("the held AddReplica: %v, want ErrReplicaExists", err)
	}

	if set := f.coord.ReplicaSets()[1]; len(set) != 2 || set[1] != to {
		t.Fatalf("replica set after the race: %v", set)
	}
	ref := wire.ShardRef{Relation: "Uniform", Shard: 1}
	if _, err := (&wire.Client{BaseURL: to}).ShardDigest(ref); err != nil {
		t.Fatalf("the joined replica lost its slice to the loser's abort: %v", err)
	}
	sl := f.set.Slices[1]
	mid := sl.Recs[len(sl.Recs)/2]
	if _, err := f.coord.ApplyDelta(f.mintDelta(f.globalIndexOf(mid.Key(), mid.Tuple.RowID), []byte("after-race"))); err != nil {
		t.Fatalf("delta after the race refused: %v", err)
	}
}

// TestReplicaAwareRecover: a fresh coordinator inventorying an R=2
// cluster must adopt the digest-identical double-hosted copies as
// replica sets — double-hosted is the normal replicated state, not a
// torn migration — dropping nothing.
func TestReplicaAwareRecover(t *testing.T) {
	f, _ := newReplicaCluster(t, 96, 3, 3, 2, 0, nil)

	// Writes before the crash keep the copies identical (write-all).
	sl1 := f.set.Slices[1]
	if _, err := f.coord.ApplyDelta(f.mintDelta(f.globalIndexOf(sl1.Recs[2].Key(), sl1.Recs[2].Tuple.RowID), []byte("pre-crash"))); err != nil {
		t.Fatal(err)
	}

	coord2, err := cluster.New(cluster.Config{
		Hasher:   f.h,
		Pub:      signKey(t).Public(),
		Params:   f.owner.Params,
		Schema:   f.owner.Schema,
		Policy:   accessctl.NewPolicy(f.role),
		Spec:     f.spec,
		Nodes:    f.urls,
		Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord2.Recover()
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if len(rep.Diverged) != 0 {
		t.Fatalf("identical replicas reported as diverged: %+v", rep)
	}
	if len(rep.DroppedCopies) != 0 {
		t.Fatalf("recovery dropped healthy replicas: %v", rep.DroppedCopies)
	}
	for shard := 0; shard < 3; shard++ {
		if len(rep.Replicas[shard]) != 2 {
			t.Fatalf("shard %d recovered with %d replicas, want 2: %v", shard, len(rep.Replicas[shard]), rep.Replicas[shard])
		}
	}
	sets := coord2.ReplicaSets()
	for shard, set := range sets {
		if len(set) != 2 {
			t.Fatalf("recovered coordinator routes shard %d to %d replicas, want 2", shard, len(set))
		}
	}

	q := engine.Query{Relation: "Uniform"}
	res, err := collect(coord2, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := f.v.VerifyResult(q, f.role, res); err != nil || len(rows) != 96 {
		t.Fatalf("post-recovery result: rows=%d err=%v", len(rows), err)
	}
}
