package cluster_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/cache"
	"vcqr/internal/cluster"
	"vcqr/internal/engine"
	"vcqr/internal/server"
	"vcqr/internal/wire"
)

// cacheFix is a running cluster fronted by one edge-cache peer.
type cacheFix struct {
	*fix
	cc  *cache.Client
	srv *cache.Server
}

func newCachedCluster(t *testing.T, n, k, nNodes int) *cacheFix {
	t.Helper()
	srv := cache.NewServer(0)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	// MinAccesses 1 admits on first sight so tests warm deterministically.
	cc := cache.NewClient(cache.Config{Peers: []string{ts.URL}, MinAccesses: 1})
	f := newClusterCfg(t, n, k, nNodes, nil, func(cfg *cluster.Config) { cfg.Cache = cc })
	return &cacheFix{fix: f, cc: cc, srv: srv}
}

// waitEntries polls the peer store until it holds at least n entries and
// the coordinator's fills have settled (until a PUT is acknowledged the
// coordinator answers that key from the committed fill itself) —
// fills are pushed asynchronously after the origin stream settles.
func (cf *cacheFix) waitEntries(n int) {
	cf.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for cf.srv.Store().Stats().Entries < n || cf.coord.Stats().Cache.Flights > 0 {
		if time.Now().After(deadline) {
			cf.t.Fatalf("cache peer has %d entries, want >= %d", cf.srv.Store().Stats().Entries, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// streamRows drives a coordinator stream through the unmodified verifier
// and returns the verified rows for payload inspection.
func (cf *cacheFix) streamRows(url string, q engine.Query, chunkRows int) ([]engine.Row, error) {
	sv, err := cf.v.NewShardStreamVerifier(cf.spec, q, cf.role)
	if err != nil {
		return nil, err
	}
	client := &wire.Client{BaseURL: url}
	var rows []engine.Row
	_, err = client.QueryStreamWith(sv, cf.role.Name, q, chunkRows, func(r engine.Row) error {
		rows = append(rows, r)
		return nil
	})
	return rows, err
}

// hasPayload reports whether any verified row carries the payload.
func hasPayload(rows []engine.Row, payload string) bool {
	for _, row := range rows {
		for _, attr := range row.Values {
			if string(attr.Val.Bytes) == payload {
				return true
			}
		}
	}
	return false
}

// TestClusterCachedStreamByteIdentical is the cache-tier acceptance pin:
// with the edge cache in the path, both serving modes — a whole-stream
// hit served verbatim and per-shard sub-stream hits replayed through the
// merge — must emit raw frame bytes identical to the uncached
// single-process /stream output, and the unmodified
// verify.ShardStreamVerifier must accept them.
func TestClusterCachedStreamByteIdentical(t *testing.T) {
	cf := newCachedCluster(t, 96, 3, 2)
	coordTS := httptest.NewServer(cf.coord.Handler())
	defer coordTS.Close()

	single := server.New(server.Config{
		Hasher: cf.h, Pub: signKey(t).Public(), Policy: accessctl.NewPolicy(cf.role),
	})
	defer single.Close()
	if err := single.AddPartition(cf.set, true); err != nil {
		t.Fatal(err)
	}
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()

	q := engine.Query{Relation: "Uniform"}
	req := wire.StreamRequest{Role: "all", Query: q, ChunkRows: 8}
	want := streamBody(t, singleTS.URL, req)

	// Cold pass: every shard misses; the stream is teed into fills.
	if !bytes.Equal(streamBody(t, coordTS.URL, req), want) {
		t.Fatal("cold cached-cluster stream differs from single-process stream")
	}
	cf.waitEntries(4) // 3 sub-streams + 1 whole stream

	// Warm pass: the whole merged stream is served verbatim from cache.
	if !bytes.Equal(streamBody(t, coordTS.URL, req), want) {
		t.Fatal("whole-stream cache hit differs from single-process stream")
	}
	st := cf.coord.Stats()
	if st.Cache == nil || st.Cache.Hits == 0 {
		t.Fatalf("warm pass did not hit the cache: %+v", st.Cache)
	}
	rows, err := cf.verifyStream(coordTS.URL, q, 8)
	if err != nil {
		t.Fatalf("cached stream rejected by unmodified verifier: %v", err)
	}
	if rows != 96 {
		t.Fatalf("verified %d rows, want 96", rows)
	}

	// Drop only the whole-stream group: the next query must replay the
	// three cached sub-streams through the merge — still byte-identical.
	cf.cc.Invalidate("Uniform", cache.StreamShard, 0)
	pre := cf.coord.Stats().Cache.Hits
	if !bytes.Equal(streamBody(t, coordTS.URL, req), want) {
		t.Fatal("sub-stream replay differs from single-process stream")
	}
	if got := cf.coord.Stats().Cache.Hits; got-pre < 3 {
		t.Fatalf("replay pass hit %d cached sub-streams, want 3", got-pre)
	}
	if rows, err := cf.verifyStream(coordTS.URL, q, 8); err != nil || rows != 96 {
		t.Fatalf("replayed stream: rows=%d err=%v", rows, err)
	}
}

// TestCacheDeltaInvalidationExact: a two-phase delta commit must retire
// exactly the touched shard's cached entries and every whole-stream
// entry, leave the untouched shards' entries serving, and never let a
// pre-delta entry answer a post-delta query.
func TestCacheDeltaInvalidationExact(t *testing.T) {
	cf := newCachedCluster(t, 96, 3, 2)
	coordTS := httptest.NewServer(cf.coord.Handler())
	defer coordTS.Close()
	q := engine.Query{Relation: "Uniform"}

	// Warm all shards and the whole-stream entry.
	if _, err := cf.verifyStream(coordTS.URL, q, 8); err != nil {
		t.Fatal(err)
	}
	cf.waitEntries(4)
	oldEpochs := cf.coord.Stats().ContentEpochs

	// Interior update to shard 1 (hosted alone on node 1).
	sl1 := cf.set.Slices[1]
	mid := sl1.Recs[len(sl1.Recs)/2]
	d := cf.mintDelta(cf.globalIndexOf(mid.Key(), mid.Tuple.RowID), []byte("cached-delta-v2"))
	if _, err := cf.coord.ApplyDelta(d); err != nil {
		t.Fatalf("delta rejected: %v", err)
	}

	// Epoch bump is exact: shard 1 moved, shards 0 and 2 did not.
	newEpochs := cf.coord.Stats().ContentEpochs
	if newEpochs[1] != oldEpochs[1]+1 || newEpochs[0] != oldEpochs[0] || newEpochs[2] != oldEpochs[2] {
		t.Fatalf("content epochs %v -> %v: want only shard 1 bumped", oldEpochs, newEpochs)
	}
	// The pushed invalidation swept shard 1's old-epoch entries and the
	// whole-stream group; the other shards' entries survive.
	staleTag := fmt.Sprintf("\x00s1\x00e%d\x00", oldEpochs[1])
	streamTag := fmt.Sprintf("\x00s%d\x00", cache.StreamShard)
	for _, ks := range cf.srv.Store().Keys() {
		if strings.Contains(ks, staleTag) {
			t.Fatalf("pre-delta shard 1 entry survived the commit: %q", ks)
		}
		if strings.Contains(ks, streamTag) {
			t.Fatalf("whole-stream entry survived the commit: %q", ks)
		}
	}
	if cf.srv.Store().Stats().Entries == 0 {
		t.Fatal("invalidation swept untouched shards' entries too")
	}

	// The very next verified query sees the new payload — shard 1 comes
	// from origin (its old key is unaskable), the others from cache.
	pre := cf.coord.Stats().Cache.Hits
	rows, err := cf.streamRows(coordTS.URL, q, 8)
	if err != nil {
		t.Fatalf("post-delta stream rejected: %v", err)
	}
	if len(rows) != 96 || !hasPayload(rows, "cached-delta-v2") {
		t.Fatalf("post-delta stream is stale: %d rows, payload present=%v", len(rows), hasPayload(rows, "cached-delta-v2"))
	}
	if got := cf.coord.Stats().Cache.Hits; got-pre < 2 {
		t.Fatalf("untouched shards did not serve from cache after the delta (hits +%d)", got-pre)
	}
}

// TestCacheDeltaUnderLiveTraffic: cached readers hammer the coordinator
// while a delta commits; every stream verifies, and the first query
// issued after ApplyDelta returns must carry the new payload — zero
// stale reads through the cutover.
func TestCacheDeltaUnderLiveTraffic(t *testing.T) {
	cf := newCachedCluster(t, 96, 3, 2)
	coordTS := httptest.NewServer(cf.coord.Handler())
	defer coordTS.Close()
	q := engine.Query{Relation: "Uniform"}

	if _, err := cf.verifyStream(coordTS.URL, q, 8); err != nil {
		t.Fatal(err)
	}
	cf.waitEntries(4)

	var stop atomic.Bool
	var queriesRun atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := cf.verifyStream(coordTS.URL, q, 8); err != nil {
					t.Errorf("cached query during delta rejected: %v", err)
					return
				}
				queriesRun.Add(1)
			}
		}()
	}

	sl1 := cf.set.Slices[1]
	mid := sl1.Recs[len(sl1.Recs)/2]
	d := cf.mintDelta(cf.globalIndexOf(mid.Key(), mid.Tuple.RowID), []byte("live-delta-v2"))
	if _, err := cf.coord.ApplyDelta(d); err != nil {
		t.Fatalf("delta rejected: %v", err)
	}

	// The moment ApplyDelta returns, a verified read must be fresh.
	rows, err := cf.streamRows(coordTS.URL, q, 8)
	if err != nil {
		t.Fatalf("post-commit stream rejected: %v", err)
	}
	if !hasPayload(rows, "live-delta-v2") {
		t.Fatal("stale read: post-commit stream misses the delta payload")
	}

	stop.Store(true)
	wg.Wait()
	if queriesRun.Load() == 0 {
		t.Fatal("no background queries completed")
	}
}

// TestCacheRebalanceInvalidation: an online migration under live cached
// traffic must reject nothing, bump the migrated shard's content epoch at
// cutover, and keep post-migration streams fresh and verifiable.
func TestCacheRebalanceInvalidation(t *testing.T) {
	cf := newCachedCluster(t, 96, 3, 2)
	coordTS := httptest.NewServer(cf.coord.Handler())
	defer coordTS.Close()
	q := engine.Query{Relation: "Uniform"}

	if _, err := cf.verifyStream(coordTS.URL, q, 8); err != nil {
		t.Fatal(err)
	}
	cf.waitEntries(4)
	oldEpochs := cf.coord.Stats().ContentEpochs

	var stop atomic.Bool
	var queriesRun atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := cf.verifyStream(coordTS.URL, q, 16); err != nil {
					t.Errorf("cached query during migration rejected: %v", err)
					return
				}
				queriesRun.Add(1)
			}
		}()
	}

	// Live delta interleaved with the migration, as in the uncached pin.
	sl1 := cf.set.Slices[1]
	deltaIdx := cf.globalIndexOf(sl1.Recs[2].Key(), sl1.Recs[2].Tuple.RowID)
	if _, err := cf.coord.ApplyDelta(cf.mintDelta(deltaIdx, []byte("pre-migration"))); err != nil {
		t.Fatal(err)
	}
	rep, err := cf.coord.Rebalance(1, cf.urls[0])
	if err != nil {
		t.Fatalf("rebalance failed: %v", err)
	}
	if rep.DrainErr != "" {
		t.Fatalf("drain failed: %s", rep.DrainErr)
	}
	stop.Store(true)
	wg.Wait()
	if queriesRun.Load() == 0 {
		t.Fatal("no queries completed during migration")
	}

	// Cutover bumped the migrated shard past the delta's bump.
	newEpochs := cf.coord.Stats().ContentEpochs
	if newEpochs[1] < oldEpochs[1]+2 {
		t.Fatalf("content epochs %v -> %v: want shard 1 bumped by delta and cutover", oldEpochs, newEpochs)
	}
	rows, err := cf.streamRows(coordTS.URL, q, 8)
	if err != nil {
		t.Fatalf("post-migration stream rejected: %v", err)
	}
	if len(rows) != 96 || !hasPayload(rows, "pre-migration") {
		t.Fatal("post-migration stream lost the delta payload")
	}
}

// TestCachePoisonedEntriesFallThrough: corrupting every resident cache
// entry must not fail a single query — the digest compare rejects the
// poison, the coordinator falls through to origin, and the unmodified
// verifier accepts the result.
func TestCachePoisonedEntriesFallThrough(t *testing.T) {
	cf := newCachedCluster(t, 96, 3, 2)
	coordTS := httptest.NewServer(cf.coord.Handler())
	defer coordTS.Close()
	q := engine.Query{Relation: "Uniform"}

	if _, err := cf.verifyStream(coordTS.URL, q, 8); err != nil {
		t.Fatal(err)
	}
	cf.waitEntries(4)

	// Flip a byte in every entry, keeping the stored digest: the peer is
	// now fully poisoned.
	store := cf.srv.Store()
	for _, ks := range store.Keys() {
		b, sum, ok := store.Get(ks)
		if !ok {
			continue
		}
		bad := append([]byte(nil), b...)
		bad[len(bad)/2] ^= 0xff
		store.Put(ks, "Uniform", 0, 0, sum, bad)
	}

	rows, err := cf.verifyStream(coordTS.URL, q, 8)
	if err != nil {
		t.Fatalf("query over a poisoned cache rejected: %v", err)
	}
	if rows != 96 {
		t.Fatalf("verified %d rows over a poisoned cache, want 96", rows)
	}
	st := cf.coord.Stats()
	if st.Cache.Fallthroughs == 0 {
		t.Fatalf("poison was not detected: %+v", st.Cache)
	}
}

// TestCacheDeadPeerFailsToOrigin: the cache tier is an optimization, so
// a dead peer — refusing connections, hung at the transport, or hung
// mid-exchange — must read as a miss and fail toward origin within the
// peer budget, never wedge the query path. The hung-peer row is the
// regression pin for the nil-Config.HTTP bug: peer traffic used to ride
// http.DefaultClient, whose missing timeout blocked the first lookup
// forever.
func TestCacheDeadPeerFailsToOrigin(t *testing.T) {
	cases := []struct {
		name string
		// peer returns the peer URL and the cache-client HTTP override
		// (nil = the default bounded client the fix installs).
		peer func(t *testing.T) (string, *http.Client)
	}{
		{"refused-connection", func(t *testing.T) (string, *http.Client) {
			// A peer that is simply gone: closed listener, nil HTTP — the
			// default client path.
			ts := httptest.NewServer(cache.NewServer(0).Handler())
			ts.Close()
			return ts.URL, nil
		}},
		{"hung-peer-default-client", func(t *testing.T) (string, *http.Client) {
			// A peer that accepts and never answers, against the default
			// client: only the PeerTimeout budget gets the query to origin.
			block := make(chan struct{})
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				<-block
			}))
			t.Cleanup(ts.Close)
			t.Cleanup(func() { close(block) }) // unblock handlers before Close
			return ts.URL, nil
		}},
		{"injected-kill", func(t *testing.T) (string, *http.Client) {
			ts := httptest.NewServer(cache.NewServer(0).Handler())
			t.Cleanup(ts.Close)
			inj := cluster.NewInjector(nil)
			inj.Set(cluster.Fault{Path: "/cache", Stage: cluster.StageRoundTrip, Mode: cluster.Kill})
			return ts.URL, &http.Client{Transport: inj, Timeout: 250 * time.Millisecond}
		}},
		{"injected-hang", func(t *testing.T) (string, *http.Client) {
			ts := httptest.NewServer(cache.NewServer(0).Handler())
			t.Cleanup(ts.Close)
			inj := cluster.NewInjector(nil)
			inj.Set(cluster.Fault{Path: "/cache", Stage: cluster.StageRoundTrip, Mode: cluster.Hang})
			return ts.URL, &http.Client{Transport: inj, Timeout: 250 * time.Millisecond}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			url, hc := tc.peer(t)
			cc := cache.NewClient(cache.Config{
				Peers:       []string{url},
				HTTP:        hc,
				MinAccesses: 1,
				PeerTimeout: 250 * time.Millisecond,
			})
			f := newClusterCfg(t, 96, 3, 2, nil, func(cfg *cluster.Config) { cfg.Cache = cc })
			coordTS := httptest.NewServer(f.coord.Handler())
			defer coordTS.Close()

			q := engine.Query{Relation: "Uniform"}
			t0 := time.Now()
			rows, err := f.verifyStream(coordTS.URL, q, 8)
			elapsed := time.Since(t0)
			if err != nil {
				t.Fatalf("query with a dead cache peer failed: %v", err)
			}
			if rows != 96 {
				t.Fatalf("verified %d rows, want 96", rows)
			}
			// One whole-stream probe plus three sub-stream probes, each
			// bounded by the 250ms budget, plus origin time: 4 seconds is
			// generous, and infinity is the bug.
			if elapsed > 4*time.Second {
				t.Fatalf("query took %v against a dead peer; budget not enforced", elapsed)
			}
			if cc.Stats().PeerErrors == 0 {
				t.Fatal("dead peer produced no peer errors; the tier was never consulted")
			}
		})
	}
}

// TestCacheSingleflightStorm: 64 concurrent identical queries against a
// cold cache must reach origin at most once per (epoch, shard) key — the
// whole fan-out runs once, everyone else rides the flight.
func TestCacheSingleflightStorm(t *testing.T) {
	cf := newCachedCluster(t, 96, 3, 2)
	coordTS := httptest.NewServer(cf.coord.Handler())
	defer coordTS.Close()
	q := engine.Query{Relation: "Uniform"}

	origin := func() uint64 {
		var n uint64
		for _, s := range cf.nodes {
			n += s.Stats().ShardStreams
		}
		return n
	}
	before := origin()

	const storm = 64
	start := make(chan struct{})
	var wg sync.WaitGroup
	var failures atomic.Uint64
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rows, err := cf.verifyStream(coordTS.URL, q, 16)
			if err != nil || rows != 96 {
				t.Errorf("storm query: rows=%d err=%v", rows, err)
				failures.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d storm queries failed", failures.Load())
	}

	// 3 covering shards, one origin sub-stream each.
	if got := origin() - before; got > 3 {
		t.Fatalf("storm reached origin %d times, want <= 3 (once per shard key)", got)
	}
	st := cf.coord.Stats()
	if st.Cache.Collapsed == 0 {
		t.Fatalf("no lookups collapsed onto the flight: %+v", st.Cache)
	}
}
