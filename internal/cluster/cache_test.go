package cluster_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/cache"
	"vcqr/internal/cluster"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/leakcheck"
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
	return newCachedClusterHTTP(t, n, k, nNodes, nil)
}

// newCachedClusterHTTP is newCachedCluster with the coordinator's node
// traffic on hc (nil = the default client).
func newCachedClusterHTTP(t *testing.T, n, k, nNodes int, hc *http.Client) *cacheFix {
	t.Helper()
	srv := cache.NewServer(0)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	// MinAccesses 1 admits on first sight so tests warm deterministically.
	cc := cache.NewClient(cache.Config{Peers: []string{ts.URL}, MinAccesses: 1})
	f := newClusterCfg(t, n, k, nNodes, hc, func(cfg *cluster.Config) { cfg.Cache = cc })
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
		rows = append(rows, keepRow(r))
		return nil
	})
	return rows, err
}

// keepRow copies a row QueryStreamWith passed to its callback, whose
// values alias a recycled chunk and are valid only during the call.
func keepRow(r engine.Row) engine.Row {
	vals := slices.Clone(r.Values)
	for i := range vals {
		vals[i].Val.Bytes = bytes.Clone(vals[i].Val.Bytes)
	}
	return engine.Row{Key: r.Key, Values: vals}
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

// origin totals the sub-streams the nodes have served: a cache hit moves
// it by nothing, a miss by one per covering shard.
func (cf *cacheFix) origin() uint64 {
	var n uint64
	for _, s := range cf.nodes {
		n += s.Stats().ShardStreams
	}
	return n
}

// TestClusterCachedStreamByteIdentical is the cache-tier acceptance pin:
// with the edge cache in the path, a miss teed into a fill, a hit served
// verbatim, and the origin miss after a covering shard's epoch moved
// must all emit raw frame bytes identical to the uncached single-process
// /stream output, and the unmodified verify.ShardStreamVerifier must
// accept them.
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

	// Cold pass: a miss; the merged stream is teed into the fill.
	if !bytes.Equal(streamBody(t, coordTS.URL, req), want) {
		t.Fatal("cold cached-cluster stream differs from single-process stream")
	}
	cf.waitEntries(1) // one request, one entry

	// Warm pass: the merged stream is served verbatim from cache.
	before := cf.origin()
	if !bytes.Equal(streamBody(t, coordTS.URL, req), want) {
		t.Fatal("cache hit differs from single-process stream")
	}
	st := cf.coord.Stats()
	if st.Cache == nil || st.Cache.Hits != 1 || st.Cache.NearHits != 0 || cf.origin() != before {
		t.Fatalf("warm pass did not serve from the cache peer: %+v, origin +%d", st.Cache, cf.origin()-before)
	}

	// Near pass: the peer hit the warm pass validated is answered from
	// the coordinator's near store, still byte-identical.
	if !bytes.Equal(streamBody(t, coordTS.URL, req), want) {
		t.Fatal("near-store hit differs from single-process stream")
	}
	st = cf.coord.Stats()
	if st.Cache.Hits != 2 || st.Cache.NearHits != 1 || cf.origin() != before {
		t.Fatalf("near pass did not serve from the near store: %+v, origin +%d", st.Cache, cf.origin()-before)
	}
	if got := scrape(t, coordTS.URL+"/metrics")[`vcqr_cache_near_hits_total{role="coordinator"}`]; got != 1 {
		t.Fatalf("/metrics shows %v near hits, want 1", got)
	}
	if e, err := (&wire.Client{BaseURL: coordTS.URL}).ObsExport(); err != nil || e.Counters["cache_near_hits"] != 1 {
		t.Fatalf("/metrics.json near hits: %v (err %v), want 1", e.Counters["cache_near_hits"], err)
	}
	rows, err := cf.verifyStream(coordTS.URL, q, 8)
	if err != nil {
		t.Fatalf("cached stream rejected by unmodified verifier: %v", err)
	}
	if rows != 96 {
		t.Fatalf("verified %d rows, want 96", rows)
	}

	// Bump one covering shard (a migration moves no content, only the
	// epoch): the next pass is an origin miss over all three shards —
	// still byte-identical — and refills under the new key.
	if _, err := cf.coord.Rebalance(1, cf.urls[0]); err != nil {
		t.Fatalf("rebalance failed: %v", err)
	}
	hits, before := cf.coord.Stats().Cache.Hits, cf.origin()
	if !bytes.Equal(streamBody(t, coordTS.URL, req), want) {
		t.Fatal("post-bump origin stream differs from single-process stream")
	}
	if got := cf.coord.Stats().Cache.Hits; got != hits || cf.origin() != before+3 {
		t.Fatalf("post-bump pass: hits +%d, origin +%d; want an origin miss over 3 shards", got-hits, cf.origin()-before)
	}
	cf.waitEntries(1)
	if !bytes.Equal(streamBody(t, coordTS.URL, req), want) {
		t.Fatal("refilled cache hit differs from single-process stream")
	}
	if got := cf.coord.Stats().Cache.Hits; got != hits+1 {
		t.Fatalf("the post-bump miss did not refill: hits +%d", got-hits)
	}
	if rows, err := cf.verifyStream(coordTS.URL, q, 8); err != nil || rows != 96 {
		t.Fatalf("refilled stream: rows=%d err=%v", rows, err)
	}
}

// TestClusterStreamsOpenShort pins the chunk schedule on the distributed
// path: the coordinator relays the first covering shard's short opening
// chunk (8 entries, the engine's first-chunk cap) and every later chunk
// at the requested budget, split at the shard seams; a cache hit replays
// the same frames.
func TestClusterStreamsOpenShort(t *testing.T) {
	cf := newCachedCluster(t, 96, 3, 2)
	coordTS := httptest.NewServer(cf.coord.Handler())
	defer coordTS.Close()
	req := wire.StreamRequest{Role: "all", Query: engine.Query{Relation: "Uniform"}, ChunkRows: 32}
	cold := streamBody(t, coordTS.URL, req)
	cf.waitEntries(1)
	hit := streamBody(t, coordTS.URL, req)
	if cf.coord.Stats().Cache.Hits != 1 {
		t.Fatal("second pass was not a cache hit")
	}
	if !bytes.Equal(hit, cold) {
		t.Fatal("cache hit differs from the merged stream it was filled from")
	}
	want := []int{8, 24, 32, 32} // 3 shards of 32 rows each
	for _, body := range [][]byte{cold, hit} {
		var got []int
		for r := bytes.NewReader(body); r.Len() > 0; {
			c, err := wire.ReadChunkFrame(r)
			if err != nil {
				t.Fatal(err)
			}
			if c.Type == engine.ChunkEntries {
				got = append(got, len(c.Entries))
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("entries chunks carry %v rows, want %v", got, want)
		}
	}
	if rows, err := cf.verifyStream(coordTS.URL, req.Query, 32); err != nil || rows != 96 {
		t.Fatalf("verified %d rows, err %v; want 96", rows, err)
	}
}

// coverQuery asks for exactly the keys shards first..last own.
func (cf *cacheFix) coverQuery(first, last int) engine.Query {
	lo, _ := cf.spec.Span(first)
	_, hi := cf.spec.Span(last)
	return engine.Query{Relation: "Uniform", KeyLo: lo, KeyHi: hi}
}

// TestCacheDeltaInvalidationExact: a two-phase delta commit must retire
// exactly the entries whose cover contains the touched shard, leave the
// streams the untouched shards cover alone resident and serving, and
// never let a pre-delta entry answer a post-delta query.
func TestCacheDeltaInvalidationExact(t *testing.T) {
	cf := newCachedCluster(t, 96, 3, 2)
	coordTS := httptest.NewServer(cf.coord.Handler())
	defer coordTS.Close()

	// Warm one entry per cover: each shard alone, each adjacent pair, all.
	covers := [][2]int{{0, 0}, {1, 1}, {2, 2}, {0, 1}, {1, 2}, {0, 2}}
	for _, cv := range covers {
		if _, err := cf.verifyStream(coordTS.URL, cf.coverQuery(cv[0], cv[1]), 8); err != nil {
			t.Fatal(err)
		}
	}
	cf.waitEntries(len(covers))
	// A second pass reads each entry from the peer, which makes every
	// cover resident in the coordinator's near store too.
	for _, cv := range covers {
		if _, err := cf.verifyStream(coordTS.URL, cf.coverQuery(cv[0], cv[1]), 8); err != nil {
			t.Fatal(err)
		}
	}
	if st := cf.coord.Stats().Cache; st.Hits != uint64(len(covers)) || st.NearHits != 0 {
		t.Fatalf("second pass: %+v, want %d peer hits", st, len(covers))
	}
	oldEpochs := cf.coord.Stats().ContentEpochs

	// Interior update to shard 1 (hosted alone on node 1).
	sl1 := cf.set.Slices[1]
	mid := sl1.Recs[len(sl1.Recs)/2]
	d := cf.mintDelta(cf.globalIndexOf(mid.Key(), mid.Tuple.RowID), []byte("cached-delta-v2"))
	if _, err := cf.coord.ApplyDelta(d); err != nil {
		t.Fatalf("delta rejected: %v", err)
	}
	// The commit queued its sweep and returned; await it.
	cf.cc.Wait()

	// Epoch bump is exact: shard 1 moved, shards 0 and 2 did not.
	newEpochs := cf.coord.Stats().ContentEpochs
	if newEpochs[1] != oldEpochs[1]+1 || newEpochs[0] != oldEpochs[0] || newEpochs[2] != oldEpochs[2] {
		t.Fatalf("content epochs %v -> %v: want only shard 1 bumped", oldEpochs, newEpochs)
	}
	// The sweep dropped shard 1's old-epoch entry and the multi-shard
	// group; exactly shards 0's and 2's own entries survive.
	staleTag := fmt.Sprintf("\x00s1\x00e%d\x00", oldEpochs[1])
	streamTag := fmt.Sprintf("\x00s%d\x00", cache.StreamShard)
	resident := cf.srv.Store().Keys()
	for _, ks := range resident {
		if strings.Contains(ks, staleTag) {
			t.Fatalf("pre-delta shard 1 entry survived the commit: %q", ks)
		}
		if strings.Contains(ks, streamTag) {
			t.Fatalf("multi-shard entry survived the commit: %q", ks)
		}
	}
	if len(resident) != 2 {
		t.Fatalf("%d entries resident after the commit, want shards 0's and 2's: %q", len(resident), resident)
	}

	// The very next verified query per cover: the untouched shards' own
	// streams are near-store hits that never reach a node; every cover
	// containing shard 1 — near-resident under its old key, which the
	// near store is never swept of — comes from origin (its old key is
	// unaskable) and is fresh.
	for _, cv := range covers {
		pre, before := *cf.coord.Stats().Cache, cf.origin()
		rows, err := cf.streamRows(coordTS.URL, cf.coverQuery(cv[0], cv[1]), 8)
		if err != nil {
			t.Fatalf("cover %v: post-delta stream rejected: %v", cv, err)
		}
		post := cf.coord.Stats().Cache
		dHits, dNear, dOrigin := post.Hits-pre.Hits, post.NearHits-pre.NearHits, cf.origin()-before
		if cv[0] <= 1 && 1 <= cv[1] {
			if dHits != 0 || dOrigin != uint64(cv[1]-cv[0]+1) || !hasPayload(rows, "cached-delta-v2") {
				t.Fatalf("cover %v is stale: hits +%d, origin +%d, payload present=%v",
					cv, dHits, dOrigin, hasPayload(rows, "cached-delta-v2"))
			}
		} else if dHits != 1 || dNear != 1 || dOrigin != 0 {
			t.Fatalf("cover %v did not serve from the near store after the delta: hits +%d (near +%d), origin +%d",
				cv, dHits, dNear, dOrigin)
		}
	}
}

// TestCacheKeyCoversPredecessorCorner pins the one thing a merged stream
// carries from outside its cover: an empty range at the start of shard i
// proves emptiness with g(pred-1), read off shard i-1's tail. A delta to
// shard i-1's second-to-last record moves that digest; it must also move
// the key (the re-signed last record of shard i-1 is mirrored as shard
// i's left context, so shard i is staged and bumped), and the answer
// after it must be the fresh one.
func TestCacheKeyCoversPredecessorCorner(t *testing.T) {
	cf := newCachedCluster(t, 96, 3, 2)
	coordTS := httptest.NewServer(cf.coord.Handler())
	defer coordTS.Close()

	// The keys of shard 1 below its first record: a single-shard cover
	// that does not start at shard 0, with nothing in it.
	lo, _ := cf.spec.Span(1)
	q := engine.Query{Relation: "Uniform", KeyLo: lo, KeyHi: cf.set.Slices[1].Recs[1].Key() - 1}
	if q.KeyHi < q.KeyLo {
		t.Fatalf("fixture has no gap at the start of shard 1: %d..%d", q.KeyLo, q.KeyHi)
	}
	req := wire.StreamRequest{Role: "all", Query: q, ChunkRows: 8}
	old := streamBody(t, coordTS.URL, req)
	cf.waitEntries(1)
	if rows, err := cf.verifyStream(coordTS.URL, q, 8); err != nil || rows != 0 {
		t.Fatalf("empty range: rows=%d err=%v", rows, err)
	}
	if hits := cf.coord.Stats().Cache.Hits; hits != 1 {
		t.Fatalf("warm empty-range query: %d hits, want 1", hits)
	}
	oldEpochs := cf.coord.Stats().ContentEpochs

	sl0 := cf.set.Slices[0]
	rec := sl0.Recs[len(sl0.Recs)-3] // second-to-last owned record of shard 0
	d := cf.mintDelta(cf.globalIndexOf(rec.Key(), rec.Tuple.RowID), []byte("corner-v2"))
	if _, err := cf.coord.ApplyDelta(d); err != nil {
		t.Fatalf("delta rejected: %v", err)
	}
	newEpochs := cf.coord.Stats().ContentEpochs
	if newEpochs[1] == oldEpochs[1] {
		t.Fatalf("content epochs %v -> %v: shard 1's key did not move with its predecessor corner", oldEpochs, newEpochs)
	}

	// Fresh means: what origin says now, which is not what was cached.
	st, err := cf.coord.QueryStream("all", q, 8)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := wire.WriteStream(&want, st); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want.Bytes(), old) {
		t.Fatal("the delta did not change the empty-range proof; the fixture misses the corner")
	}
	hits := cf.coord.Stats().Cache.Hits
	if got := streamBody(t, coordTS.URL, req); !bytes.Equal(got, want.Bytes()) {
		t.Fatal("post-delta empty-range answer is not the origin's")
	}
	if got := cf.coord.Stats().Cache.Hits; got != hits {
		t.Fatal("post-delta empty-range query was answered from the cache")
	}
	if rows, err := cf.verifyStream(coordTS.URL, q, 8); err != nil || rows != 0 {
		t.Fatalf("post-delta empty range (PredPrevG) rejected: rows=%d err=%v", rows, err)
	}
}

// TestCacheFillSurvivesFailover: the fill tees the merged stream, which
// a mid-stream replica failover never shows in — so a request whose
// first replica dies mid-chunk still commits its fill, and the next
// request is a hit with the same bytes.
func TestCacheFillSurvivesFailover(t *testing.T) {
	srv := cache.NewServer(0)
	peerTS := httptest.NewServer(srv.Handler())
	defer peerTS.Close()
	cc := cache.NewClient(cache.Config{Peers: []string{peerTS.URL}, MinAccesses: 1})
	f, inj := newReplicaCluster(t, 96, 3, 3, 2, 1500*time.Millisecond, func(cfg *cluster.Config) { cfg.Cache = cc })
	cf := &cacheFix{fix: f, cc: cc, srv: srv}
	coordTS := httptest.NewServer(cf.coord.Handler())
	defer coordTS.Close()

	req := wire.StreamRequest{Role: "all", Query: engine.Query{Relation: "Uniform"}, ChunkRows: 8}
	want := singleBaseline(t, f, req)

	inj.Set(cluster.Fault{Path: "/shard/stream", Stage: cluster.StageMidChunk, Mode: cluster.Kill, Times: 1})
	if !bytes.Equal(streamBody(t, coordTS.URL, req), want) {
		t.Fatal("faulted cached-cluster stream differs from single-process stream")
	}
	if inj.Fired() != 1 || cf.coord.Stats().Failovers == 0 {
		t.Fatalf("fault fired %d times, %d failovers; want a mid-stream failover", inj.Fired(), cf.coord.Stats().Failovers)
	}
	cf.waitEntries(1)
	if st := cf.coord.Stats().Cache; st.Fills != 1 || st.FillDrops != 0 {
		t.Fatalf("the failed-over request did not commit its fill: %+v", st)
	}

	before := cf.origin()
	if !bytes.Equal(streamBody(t, coordTS.URL, req), want) {
		t.Fatal("cache hit after a failed-over fill differs from single-process stream")
	}
	if st := cf.coord.Stats().Cache; st.Hits != 1 || cf.origin() != before {
		t.Fatalf("request after the failed-over fill was not a hit: %+v, origin +%d", st, cf.origin()-before)
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
	cf.waitEntries(1)

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

// TestCacheReplicaCommitWindow: at R=2 a delta's commit reaches the two
// replicas of a shard at different times. A full scan taken in between,
// reading the replica that has not committed yet, fills the cache with
// pre-delta bytes; the content epoch must not have moved by then, or the
// fill lands under the post-delta key and the first read after
// ApplyDelta returns is a stale hit.
func TestCacheReplicaCommitWindow(t *testing.T) {
	srv := cache.NewServer(0)
	peerTS := httptest.NewServer(srv.Handler())
	defer peerTS.Close()
	cc := cache.NewClient(cache.Config{Peers: []string{peerTS.URL}, MinAccesses: 1})
	f, inj := newReplicaCluster(t, 96, 3, 2, 2, 0, func(cfg *cluster.Config) { cfg.Cache = cc })
	cf := &cacheFix{fix: f, cc: cc, srv: srv}
	coordTS := httptest.NewServer(cf.coord.Handler())
	defer coordTS.Close()
	q := engine.Query{Relation: "Uniform"}

	// Hang the commit to the replica that commits second.
	urls := slices.Sorted(slices.Values(f.urls))
	first := f.nodes[slices.Index(f.urls, urls[0])]
	inj.Set(cluster.Fault{Node: urls[1], Path: wire.NodeTxRPC.Path, Mode: cluster.Hang, Times: 1})
	applied := first.Stats().DeltasApplied
	done := make(chan error, 1)
	go func() {
		_, err := cf.coord.ApplyDelta(cf.interiorDelta("window-v2"))
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for first.Stats().DeltasApplied == applied {
		if time.Now().After(deadline) {
			inj.Release()
			t.Fatalf("the first replica never committed: %v", <-done)
		}
		time.Sleep(time.Millisecond)
	}

	// Inside the window: a full scan reads the uncommitted replica only,
	// and its merged stream fills the cache.
	inj.Set(cluster.Fault{Node: urls[0], Path: wire.ShardStreamEP.Path, Mode: cluster.Kill})
	rows, err := cf.streamRows(coordTS.URL, q, 8)
	if err != nil {
		t.Fatalf("in-window scan rejected: %v", err)
	}
	if hasPayload(rows, "window-v2") {
		t.Fatal("in-window scan read the committed replica; the window was not exercised")
	}
	cf.waitEntries(1)
	inj.Clear()
	inj.Release()
	if err := <-done; err != nil {
		t.Fatalf("delta rejected: %v", err)
	}

	rows, err = cf.streamRows(coordTS.URL, q, 8)
	if err != nil {
		t.Fatalf("post-delta scan rejected: %v", err)
	}
	if !hasPayload(rows, "window-v2") {
		t.Fatal("stale read: the first scan after ApplyDelta returned served the pre-delta fill")
	}
}

// TestCacheKeysSurviveCoordinatorRestart: content epochs start at 0 in
// every coordinator, so a restarted coordinator's Recover re-issues epoch
// numbers its predecessor used for other content. A peer that missed one
// delta's invalidation sweep still holds the pre-delta stream filed at
// epoch 1 when the successor, back at epoch 1, asks for the same range —
// and it must not be handed those bytes: the next answer is origin's,
// post-delta.
func TestCacheKeysSurviveCoordinatorRestart(t *testing.T) {
	srv := cache.NewServer(0)
	peerTS := httptest.NewServer(srv.Handler())
	defer peerTS.Close()
	inj := cluster.NewInjector(nil)
	cc := cache.NewClient(cache.Config{Peers: []string{peerTS.URL}, MinAccesses: 1, HTTP: &http.Client{Transport: inj}})
	f := newClusterCfg(t, 96, 3, 2, nil, func(cfg *cluster.Config) { cfg.Cache = cc })
	cf := &cacheFix{fix: f, cc: cc, srv: srv}
	coordTS := httptest.NewServer(cf.coord.Handler())
	defer coordTS.Close()

	// Placed at epoch 1: fill the stream shard 1 alone covers.
	q := cf.coverQuery(1, 1)
	if _, err := cf.verifyStream(coordTS.URL, q, 8); err != nil {
		t.Fatal(err)
	}
	cf.waitEntries(1)

	// The delta moves shard 1 to epoch 2, and the peer misses its sweep.
	inj.Set(cluster.Fault{Path: wire.CacheRPC.Path, Mode: cluster.Kill})
	if _, err := cf.coord.ApplyDelta(cf.interiorDelta("restart-v2")); err != nil {
		t.Fatalf("delta rejected: %v", err)
	}
	cc.Wait() // the commit queued its sweep; let it meet the fault
	inj.Clear()
	if inj.Fired() == 0 || srv.Store().Stats().Entries != 1 {
		t.Fatalf("the sweep was not dropped: %d faults fired, %d entries resident", inj.Fired(), srv.Store().Stats().Entries)
	}

	// A new coordinator over the same nodes and peer adopts the cluster;
	// Recover moves every shard's content epoch 0 -> 1.
	coord2, err := cluster.New(cluster.Config{
		Hasher: f.h, Pub: signKey(t).Public(), Params: f.owner.Params, Schema: f.owner.Schema,
		Policy: accessctl.NewPolicy(f.role), Spec: f.spec, Nodes: f.urls, Cache: cc,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if _, err := coord2.Recover(); err != nil {
		t.Fatal(err)
	}
	if e := coord2.Stats().ContentEpochs[1]; e != 1 {
		t.Fatalf("recovered content epoch %d; the fixture wants the predecessor's epoch 1 reused", e)
	}
	ts2 := httptest.NewServer(coord2.Handler())
	defer ts2.Close()

	hits, before := coord2.Stats().Cache.Hits, cf.origin()
	rows, err := cf.streamRows(ts2.URL, q, 8)
	if err != nil {
		t.Fatalf("post-restart stream rejected: %v", err)
	}
	if got := coord2.Stats().Cache.Hits; got != hits || cf.origin() != before+1 || !hasPayload(rows, "restart-v2") {
		t.Fatalf("stale read after restart: hits +%d, origin +%d, delta payload present=%v",
			got-hits, cf.origin()-before, hasPayload(rows, "restart-v2"))
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
	cf.waitEntries(1)
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
// entry must not fail a single query, whichever way the peer lies — a
// flipped byte under the stored digest dies on the digest compare, a
// truncated stream under a recomputed digest dies on the frame walk —
// the coordinator falls through to origin, and the unmodified verifier
// accepts the result. Each phase asks its own query (its own chunk
// size), so the poisoned read is its key's first peer read: a peer hit
// before it would be answered from the coordinator's near store, which
// holds only bytes that already passed both checks.
func TestCachePoisonedEntriesFallThrough(t *testing.T) {
	cf := newCachedCluster(t, 96, 3, 2)
	coordTS := httptest.NewServer(cf.coord.Handler())
	defer coordTS.Close()
	q := engine.Query{Relation: "Uniform"}
	store := cf.srv.Store()

	for _, phase := range []struct {
		name      string
		chunkRows int
		poison    func(b []byte, sum hashx.Digest) ([]byte, hashx.Digest)
	}{
		{"flipped byte, stored digest kept", 8, func(b []byte, sum hashx.Digest) ([]byte, hashx.Digest) {
			bad := append([]byte(nil), b...)
			bad[len(bad)/2] ^= 0xff
			return bad, sum
		}},
		{"cut at the last frame boundary, digest recomputed", 16, func(b []byte, _ hashx.Digest) ([]byte, hashx.Digest) {
			end := 0 // start of the last frame
			for off := 0; off < len(b); off += 4 + int(binary.BigEndian.Uint32(b[off:])) {
				end = off
			}
			return b[:end], cf.h.Hash(b[:end])
		}},
	} {
		// Fill this phase's key; the previous phase's suspect drop and
		// refill race on the peer, so wait until every fill has settled.
		drops := store.Stats().Invalidations
		if _, err := cf.verifyStream(coordTS.URL, q, phase.chunkRows); err != nil {
			t.Fatal(err)
		}
		cf.waitEntries(1)

		// The peer is now fully poisoned.
		for _, ks := range store.Keys() {
			b, sum, ok := store.Get(ks)
			if !ok {
				continue
			}
			bad, badSum := phase.poison(b, sum)
			store.Put(ks, "Uniform", 0, 0, badSum, bad)
		}

		pre := cf.coord.Stats().Cache.Fallthroughs
		rows, err := cf.verifyStream(coordTS.URL, q, phase.chunkRows)
		if err != nil {
			t.Fatalf("%s: query over a poisoned cache rejected: %v", phase.name, err)
		}
		if rows != 96 {
			t.Fatalf("%s: verified %d rows over a poisoned cache, want 96", phase.name, rows)
		}
		if st := cf.coord.Stats(); st.Cache.Fallthroughs != pre+1 {
			t.Fatalf("%s: poison was not detected: %+v", phase.name, st.Cache)
		}
		// Let the suspect drop land before the next phase refills.
		deadline := time.Now().Add(5 * time.Second)
		for store.Stats().Invalidations == drops {
			if time.Now().After(deadline) {
				t.Fatalf("%s: suspect entry was never dropped from its peer", phase.name)
			}
			time.Sleep(2 * time.Millisecond)
		}
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
			// One probe, bounded by the 250ms budget, plus origin time: 4
			// seconds is generous, and infinity is the bug.
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
// cold cache must reach origin at most once — the whole fan-out runs
// once under the one key, everyone else rides the flight. The one
// fan-out is held open (its first sub-stream hangs before the hello)
// until every other lookup has joined the flight, so the collapse does
// not depend on the fill still being in flight by luck.
func TestCacheSingleflightStorm(t *testing.T) {
	inj := cluster.NewInjector(nil)
	cf := newCachedClusterHTTP(t, 96, 3, 2, &http.Client{Transport: inj})
	coordTS := httptest.NewServer(cf.coord.Handler())
	defer coordTS.Close()
	q := engine.Query{Relation: "Uniform"}
	inj.Set(cluster.Fault{Path: wire.ShardStreamEP.Path, Stage: cluster.StageBeforeHello, Mode: cluster.Hang, Times: 1})
	defer inj.Release()

	before := cf.origin()

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
	deadline := time.Now().Add(5 * time.Second)
	for cf.coord.Stats().Cache.Collapsed < storm-1 {
		if time.Now().After(deadline) {
			inj.Release()
			wg.Wait()
			t.Fatalf("only %d lookups joined the held flight: %+v", cf.coord.Stats().Cache.Collapsed, cf.coord.Stats().Cache)
		}
		time.Sleep(time.Millisecond)
	}
	inj.Release()
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d storm queries failed", failures.Load())
	}

	// 3 covering shards, one origin sub-stream each.
	if got := cf.origin() - before; got > 3 {
		t.Fatalf("storm opened %d origin sub-streams, want <= 3 (one fan-out)", got)
	}
	if st := cf.coord.Stats(); st.Cache.Collapsed != storm-1 || inj.Fired() != 1 {
		t.Fatalf("want %d lookups collapsed onto one held fan-out, got %d (faults fired %d): %+v", storm-1, st.Cache.Collapsed, inj.Fired(), st.Cache)
	}
}

// sweepPark is a cache-client transport that, once armed, holds the next
// sweep frame (the cache protocol's batched invalidation, tag 6 after the
// 4-byte length) until released, and lets every other exchange through.
type sweepPark struct {
	mu      sync.Mutex
	armed   bool
	parked  chan struct{} // closed when the armed sweep is held
	release chan struct{}
}

func newSweepPark() *sweepPark {
	return &sweepPark{parked: make(chan struct{}), release: make(chan struct{})}
}

func (p *sweepPark) RoundTrip(req *http.Request) (*http.Response, error) {
	p.mu.Lock()
	hold := p.armed && isSweep(req)
	if hold {
		p.armed = false
		close(p.parked)
	}
	p.mu.Unlock()
	if hold {
		select {
		case <-p.release:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

func isSweep(req *http.Request) bool {
	if req.GetBody == nil {
		return false
	}
	body, err := req.GetBody()
	if err != nil {
		return false
	}
	defer body.Close()
	var hdr [5]byte
	_, err = io.ReadFull(body, hdr[:])
	return err == nil && hdr[4] == 6
}

// TestCacheLateSweepKeepsNewerFill: a sweep is pushed after its commit
// returns, so it can land after later commits and the fills made under
// them. A sweep carries the epochs it was queued at and drops only
// entries older than those, so a fill made at a newer epoch — a shard's
// own stream at e+1, a multi-shard stream at a later bump generation —
// survives the late sweep of epoch e and serves the next query.
func TestCacheLateSweepKeepsNewerFill(t *testing.T) {
	srv := cache.NewServer(0)
	peerTS := httptest.NewServer(srv.Handler())
	defer peerTS.Close()
	park := newSweepPark()
	cc := cache.NewClient(cache.Config{
		Peers: []string{peerTS.URL}, MinAccesses: 1,
		HTTP: &http.Client{Transport: park}, PeerTimeout: 30 * time.Second,
	})
	f := newClusterCfg(t, 96, 3, 2, nil, func(cfg *cluster.Config) { cfg.Cache = cc })
	defer f.coord.Close()
	cf := &cacheFix{fix: f, cc: cc, srv: srv}
	coordTS := httptest.NewServer(cf.coord.Handler())
	defer coordTS.Close()
	cc.Wait() // Place's sweep

	own, all := cf.coverQuery(1, 1), engine.Query{Relation: "Uniform"}
	for _, q := range []engine.Query{own, all} {
		if _, err := cf.verifyStream(coordTS.URL, q, 8); err != nil {
			t.Fatal(err)
		}
	}
	cf.waitEntries(2)

	// Delta A moves shard 1 to epoch e; its sweep is held on the wire.
	park.mu.Lock()
	park.armed = true
	park.mu.Unlock()
	if _, err := cf.coord.ApplyDelta(cf.interiorDelta("late-sweep-a")); err != nil {
		t.Fatal(err)
	}
	<-park.parked
	// Delta B moves it to e+1 while A's sweep is still out: B's sweep
	// queues behind it. Both streams refill under B's epochs.
	if _, err := cf.coord.ApplyDelta(cf.interiorDelta("late-sweep-b")); err != nil {
		t.Fatal(err)
	}
	e := cf.coord.Stats().ContentEpochs[1]
	for _, q := range []engine.Query{own, all} {
		rows, err := cf.streamRows(coordTS.URL, q, 8)
		if err != nil || !hasPayload(rows, "late-sweep-b") {
			t.Fatalf("post-delta query: err=%v, fresh payload present=%v", err, hasPayload(rows, "late-sweep-b"))
		}
	}
	fresh := fmt.Sprintf("\x00s1\x00e%d\x00", e)
	multi := fmt.Sprintf("\x00s%d\x00", cache.StreamShard)
	resident := func() (own, multiShard int) {
		for _, ks := range srv.Store().Keys() {
			switch {
			case strings.Contains(ks, fresh):
				own++
			case strings.Contains(ks, multi):
				multiShard++
			}
		}
		return own, multiShard
	}
	deadline := time.Now().Add(5 * time.Second)
	for o, m := resident(); o != 1 || m < 1 || cf.coord.Stats().Cache.Flights > 0; o, m = resident() {
		if time.Now().After(deadline) {
			t.Fatalf("fills at epoch %d did not land: %d own, %d multi-shard entries", e, o, m)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A's sweep lands now, then B's.
	close(park.release)
	cc.Wait()
	if o, m := resident(); o != 1 || m != 1 {
		t.Fatalf("late sweeps dropped fills made under newer epochs: %d own, %d multi-shard entries left, want 1 and 1 (%q)",
			o, m, srv.Store().Keys())
	}
	if n := len(srv.Store().Keys()); n != 2 {
		t.Fatalf("%d entries resident after both sweeps, want the 2 fresh ones: %q", n, srv.Store().Keys())
	}
	for _, q := range []engine.Query{own, all} {
		hits, before := cf.coord.Stats().Cache.Hits, cf.origin()
		rows, err := cf.streamRows(coordTS.URL, q, 8)
		if err != nil || !hasPayload(rows, "late-sweep-b") {
			t.Fatalf("query after the late sweeps: err=%v, fresh payload present=%v", err, hasPayload(rows, "late-sweep-b"))
		}
		if cf.coord.Stats().Cache.Hits != hits+1 || cf.origin() != before {
			t.Fatalf("query %v after the late sweeps did not hit the surviving fill", q)
		}
	}
}

// TestCacheHungPeerDeltaCommits: a cache peer that accepts and never
// answers cannot stall a write. The sweeps a placement and a delta
// queue go out on the cache client's sender, each bounded by the peer
// timeout, so Place and ApplyDelta return in a fraction of one timeout
// with the content epochs moved — the epochs, not the sweep, keep reads
// exact — and Close waits the sender out, leaving no goroutine behind.
func TestCacheHungPeerDeltaCommits(t *testing.T) {
	const peerTimeout = time.Second
	cases := []struct {
		name string
		peer func(t *testing.T) (string, *http.Client)
	}{
		{"hung-server", func(t *testing.T) (string, *http.Client) {
			block := make(chan struct{})
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				select {
				case <-block:
				case <-r.Context().Done():
				}
			}))
			t.Cleanup(ts.Close)
			t.Cleanup(func() { close(block) })
			return ts.URL, nil
		}},
		{"injected-hang", func(t *testing.T) (string, *http.Client) {
			ts := httptest.NewServer(cache.NewServer(0).Handler())
			t.Cleanup(ts.Close)
			inj := cluster.NewInjector(nil)
			inj.Set(cluster.Fault{Path: wire.CacheRPC.Path, Stage: cluster.StageRoundTrip, Mode: cluster.Hang})
			t.Cleanup(inj.Release)
			return ts.URL, &http.Client{Transport: inj}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			url, hc := tc.peer(t)
			cc := cache.NewClient(cache.Config{Peers: []string{url}, HTTP: hc, MinAccesses: 1, PeerTimeout: peerTimeout})
			f := newClusterCfg(t, 96, 3, 2, nil, func(cfg *cluster.Config) { cfg.Cache = cc })

			before := f.coord.Stats().ContentEpochs
			t0 := time.Now()
			if err := f.coord.Place(f.set); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d > peerTimeout/4 {
				t.Fatalf("Place took %v against a hung cache peer (peer timeout %v)", d, peerTimeout)
			}
			placed := f.coord.Stats().ContentEpochs
			for i := range placed {
				if placed[i] != before[i]+1 {
					t.Fatalf("content epochs %v -> %v: Place must bump every shard", before, placed)
				}
			}

			t0 = time.Now()
			if _, err := f.coord.ApplyDelta(f.interiorDelta("hung-peer-v2")); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d > peerTimeout/4 {
				t.Fatalf("ApplyDelta took %v against a hung cache peer (peer timeout %v)", d, peerTimeout)
			}
			if e := f.coord.Stats().ContentEpochs; e[1] != placed[1]+1 {
				t.Fatalf("content epochs %v -> %v: the delta did not bump shard 1", placed, e)
			}

			// Close waits for the sender: every push it held ends within
			// the peer timeout, and none outlives Close.
			f.coord.Close()
			for _, g := range leakcheck.Settle(0) {
				if strings.Contains(g, "cache.(*Client).sweeper") {
					t.Fatalf("a sweep outlived Coordinator.Close:\n%s", g)
				}
			}
			if cc.Stats().PeerErrors == 0 {
				t.Fatal("the hung peer produced no peer errors; no sweep was pushed")
			}
		})
	}
}
