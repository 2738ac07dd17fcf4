package cluster_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
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
	"vcqr/internal/sig"
	"vcqr/internal/verify"
	"vcqr/internal/wire"
	"vcqr/internal/workload"
)

var (
	ownerKey *sig.PrivateKey
	keyOnce  sync.Once
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

// fix is a running cluster: nNodes shard-node servers plus a
// coordinator, with the owner-side master copy for minting deltas and
// the client-side verifier.
type fix struct {
	t     *testing.T
	h     *hashx.Hasher
	owner *core.SignedRelation // owner's evolving master (global chain)
	set   *partition.Set
	spec  partition.Spec
	role  accessctl.Role

	nodes []*server.Server
	urls  []string
	srvs  []*httptest.Server // for SIGKILL-equivalent death (CloseClientConnections)
	coord *cluster.Coordinator
	v     *verify.Verifier
}

func newCluster(t *testing.T, n, k, nNodes int, hc *http.Client) *fix {
	return newClusterCfg(t, n, k, nNodes, hc, nil)
}

// newClusterCfg is newCluster with a hook to adjust the coordinator
// config before construction (cache tier, observability, ...).
func newClusterCfg(t *testing.T, n, k, nNodes int, hc *http.Client, mod func(*cluster.Config)) *fix {
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
	set, err := partition.Split(sr, k)
	if err != nil {
		t.Fatal(err)
	}
	role := accessctl.Role{Name: "all"}
	f := &fix{
		t: t, h: h, owner: sr.Clone(), set: set, spec: set.Spec, role: role,
		v: verify.New(h, signKey(t).Public(), sr.Params, sr.Schema),
	}
	for i := 0; i < nNodes; i++ {
		s := server.New(server.Config{
			Hasher: h,
			Pub:    signKey(t).Public(),
			Policy: accessctl.NewPolicy(role),
		})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(s.Close)
		f.nodes = append(f.nodes, s)
		f.urls = append(f.urls, ts.URL)
		f.srvs = append(f.srvs, ts)
	}
	cfg := cluster.Config{
		Hasher: h,
		Pub:    signKey(t).Public(),
		Params: sr.Params,
		Schema: sr.Schema,
		Policy: accessctl.NewPolicy(role),
		Spec:   set.Spec,
		Nodes:  f.urls,
		HTTP:   hc,
	}
	if mod != nil {
		mod(&cfg)
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Place(set); err != nil {
		t.Fatal(err)
	}
	f.coord = coord
	return f
}

// mintDelta routes an owner-side attribute update through delta.Diff —
// the exact batch the coordinator's ingest endpoint receives.
func (f *fix) mintDelta(idx int, payload []byte) delta.Delta {
	f.t.Helper()
	before := f.owner.Clone()
	rec := f.owner.Recs[idx]
	if _, err := f.owner.UpdateAttrs(f.h, signKey(f.t), rec.Key(), rec.Tuple.RowID,
		[]relation.Value{relation.BytesVal(payload)}); err != nil {
		f.t.Fatal(err)
	}
	return delta.Diff(before, f.owner)
}

// interiorDelta mints an attribute update interior to shard 1.
func (f *fix) interiorDelta(payload string) delta.Delta {
	sl1 := f.set.Slices[1]
	mid := sl1.Recs[len(sl1.Recs)/2]
	return f.mintDelta(f.globalIndexOf(mid.Key(), mid.Tuple.RowID), []byte(payload))
}

// streamBody POSTs a wire.StreamRequest and returns the raw frame bytes.
func streamBody(t *testing.T, url string, req wire.StreamRequest) []byte {
	t.Helper()
	var body bytes.Buffer
	if err := wire.WriteStreamRequest(&body, &req); err != nil {
		t.Fatal(err)
	}
	code, blob := postStream(t, url, body.Bytes())
	if code != http.StatusOK {
		t.Fatalf("stream returned %d: %s", code, blob)
	}
	return blob
}

// postStream POSTs raw bytes to /stream and returns the status and body.
func postStream(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/stream", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, blob
}

// TestStreamAcceptsLegacyGobRequest: /stream still reads a request
// gob-encoded the way clients built before the field codec encode it
// (bench's traced client, exactly as it builds one), at the single server
// and at a coordinator, and answers it with the very bytes the framed
// request gets; a body that is neither a frame nor gob is still a 400.
func TestStreamAcceptsLegacyGobRequest(t *testing.T) {
	f := newCluster(t, 96, 3, 2, nil)
	coordTS := httptest.NewServer(f.coord.Handler())
	defer coordTS.Close()
	single := server.New(server.Config{
		Hasher: f.h, Pub: signKey(t).Public(), Policy: accessctl.NewPolicy(f.role),
	})
	defer single.Close()
	if err := single.AddPartition(f.set, true); err != nil {
		t.Fatal(err)
	}
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()

	q := engine.Query{Relation: "Uniform", KeyLo: f.owner.Recs[10].Key(), KeyHi: f.owner.Recs[90].Key()}
	req := wire.StreamRequest{Role: "all", Query: q, ChunkRows: 8}
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(req); err != nil {
		t.Fatal(err)
	}
	want := streamBody(t, singleTS.URL, req)
	for name, url := range map[string]string{"single server": singleTS.URL, "coordinator": coordTS.URL} {
		if got := streamBody(t, url, req); !bytes.Equal(got, want) {
			t.Fatalf("%s: framed request answered %d bytes, single server %d", name, len(got), len(want))
		}
		if code, got := postStream(t, url, legacy.Bytes()); code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s: gob request answered %d with %d bytes, the framed request %d", name, code, len(got), len(want))
		}
		for _, body := range [][]byte{[]byte("neither a frame nor gob"), {0, 0, 0, 1, 0x99}} {
			if code, _ := postStream(t, url, body); code != http.StatusBadRequest {
				t.Errorf("%s: body %q answered %d, want 400", name, body, code)
			}
		}
	}
}

// verifyStream drives a coordinator stream through the UNMODIFIED
// shard-aware verifier and returns the verified row count.
func (f *fix) verifyStream(url string, q engine.Query, chunkRows int) (int, error) {
	sv, err := f.v.NewShardStreamVerifier(f.spec, q, f.role)
	if err != nil {
		return 0, err
	}
	client := &wire.Client{BaseURL: url}
	rows := 0
	_, err = client.QueryStreamWith(sv, f.role.Name, q, chunkRows, func(engine.Row) error {
		rows++
		return nil
	})
	return rows, err
}

// TestClusterStreamByteIdentical is the acceptance pin: a query spanning
// 3 shards hosted on 2 separate node processes must return a stream (a)
// accepted by the unmodified verify.ShardStreamVerifier and (b)
// byte-identical — raw HTTP frame bytes — to the single-process
// partitioned server's /stream output on the same data.
func TestClusterStreamByteIdentical(t *testing.T) {
	f := newCluster(t, 96, 3, 2, nil)
	coordTS := httptest.NewServer(f.coord.Handler())
	defer coordTS.Close()

	// The same publication served by one process.
	single := server.New(server.Config{
		Hasher: f.h, Pub: signKey(t).Public(), Policy: accessctl.NewPolicy(f.role),
	})
	defer single.Close()
	if err := single.AddPartition(f.set, true); err != nil {
		t.Fatal(err)
	}
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()

	q := engine.Query{Relation: "Uniform"} // full range: all 3 shards
	req := wire.StreamRequest{Role: "all", Query: q, ChunkRows: 8}
	got := streamBody(t, coordTS.URL, req)
	want := streamBody(t, singleTS.URL, req)
	if !bytes.Equal(got, want) {
		t.Fatalf("cluster stream (%d bytes) differs from single-process stream (%d bytes)", len(got), len(want))
	}

	rows, err := f.verifyStream(coordTS.URL, q, 8)
	if err != nil {
		t.Fatalf("cluster stream rejected by unmodified verifier: %v", err)
	}
	if rows != 96 {
		t.Fatalf("verified %d rows, want 96", rows)
	}

	// Sub-ranges and single-shard covers too.
	sub := engine.Query{Relation: "Uniform", KeyLo: f.owner.Recs[10].Key(), KeyHi: f.owner.Recs[90].Key()}
	req.Query = sub
	if !bytes.Equal(streamBody(t, coordTS.URL, req), streamBody(t, singleTS.URL, req)) {
		t.Fatal("sub-range cluster stream differs from single-process stream")
	}

	st := f.coord.Stats()
	if st.Fanouts == 0 || st.Streams < 3 {
		t.Fatalf("coordinator counters off: %+v", st)
	}
	// Per-node inventories visible in node /statsz.
	if hosted := f.nodes[0].Stats().Hosted["Uniform"]; len(hosted) != 2 {
		t.Fatalf("node 0 hosts %d shards, want 2 (round-robin of 3 over 2)", len(hosted))
	}
}

// collect answers q as one materialized result: the coordinator's merged
// stream, collected.
func collect(c *cluster.Coordinator, role string, q engine.Query) (*engine.Result, error) {
	st, err := c.QueryStream(role, q, 0)
	if err != nil {
		return nil, err
	}
	return engine.Collect(st)
}

// TestClusterMaterializedQuery: the coordinator's merged stream, collected,
// verifies with the whole-result verifier.
func TestClusterMaterializedQuery(t *testing.T) {
	f := newCluster(t, 60, 3, 2, nil)
	q := engine.Query{Relation: "Uniform"}
	res, err := collect(f.coord, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := f.v.VerifyResult(q, f.role, res)
	if err != nil {
		t.Fatalf("cluster result rejected: %v", err)
	}
	if len(rows) != 60 {
		t.Fatalf("verified %d rows, want 60", len(rows))
	}
	if _, err := collect(f.coord, "all", engine.Query{Relation: "Uniform", Distinct: true}); err == nil {
		t.Fatal("DISTINCT accepted by the coordinator")
	}
}

// globalIndexOf maps a record identity to its index in the owner master.
func (f *fix) globalIndexOf(key, rowID uint64) int {
	for i, rec := range f.owner.Recs {
		if rec.Key() == key && rec.Tuple.RowID == rowID {
			return i
		}
	}
	f.t.Fatalf("record (%d,%d) not in master", key, rowID)
	return -1
}

// TestClusterDelta drives both delta shapes through the two-phase
// protocol: an interior update (single node) and a seam-crossing update
// whose re-sign neighbourhood spans two shards hosted on different
// nodes, forcing a cross-node mirror fix.
func TestClusterDelta(t *testing.T) {
	f := newCluster(t, 96, 3, 2, nil)
	coordTS := httptest.NewServer(f.coord.Handler())
	defer coordTS.Close()
	q := engine.Query{Relation: "Uniform"}

	// A batch without ops routes to no shard: refused by the same name
	// the in-process partitioned server uses, and never counted applied.
	if _, err := f.coord.ApplyDelta(delta.Delta{Relation: "Uniform"}); !errors.Is(err, delta.ErrEmpty) {
		t.Fatalf("empty delta: got %v, want delta.ErrEmpty", err)
	}
	if n := f.coord.Stats().DeltasApplied; n != 0 {
		t.Fatalf("refused empty delta counted as applied (%d)", n)
	}

	// Interior to shard 1 (hosted alone on node 1).
	sl1 := f.set.Slices[1]
	mid := sl1.Recs[len(sl1.Recs)/2]
	d := f.mintDelta(f.globalIndexOf(mid.Key(), mid.Tuple.RowID), []byte("interior-v2"))
	if _, err := f.coord.ApplyDelta(d); err != nil {
		t.Fatalf("interior delta rejected: %v", err)
	}

	// Seam-crossing: update shard 0's last owned record; the owner
	// re-signs its neighbours, including shard 1's first owned record —
	// ops land on both nodes and shard 1's mirror of shard 0's edge
	// must be fixed across processes.
	sl0 := f.set.Slices[0]
	edge := sl0.Recs[len(sl0.Recs)-2]
	d = f.mintDelta(f.globalIndexOf(edge.Key(), edge.Tuple.RowID), []byte("seam-v2"))
	if len(d.Ops) < 2 {
		t.Fatalf("edge update minted only %d ops", len(d.Ops))
	}
	if _, err := f.coord.ApplyDelta(d); err != nil {
		t.Fatalf("seam-crossing delta rejected: %v", err)
	}

	// The post-delta publication must verify end to end and carry both
	// new payloads.
	rows, err := f.verifyStream(coordTS.URL, q, 8)
	if err != nil {
		t.Fatalf("post-delta stream rejected: %v", err)
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
			if string(attr.Val.Bytes) == "interior-v2" || string(attr.Val.Bytes) == "seam-v2" {
				found++
			}
		}
	}
	if found != 2 {
		t.Fatalf("found %d updated payloads, want 2", found)
	}
}

// TestClusterRebalanceUnderLoad is the online-migration acceptance: a
// shard migrates between nodes while queries stream and owner deltas
// land, with zero rejected in-flight queries, and the routing swing is
// reflected in node inventories and coordinator stats.
func TestClusterRebalanceUnderLoad(t *testing.T) {
	f := newCluster(t, 96, 3, 2, nil)
	coordTS := httptest.NewServer(f.coord.Handler())
	defer coordTS.Close()
	q := engine.Query{Relation: "Uniform"}

	// Background query load: every stream must verify; count failures.
	var stop atomic.Bool
	var queryErrs atomic.Uint64
	var queriesRun atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := f.verifyStream(coordTS.URL, q, 16); err != nil {
					t.Errorf("query during migration rejected: %v", err)
					queryErrs.Add(1)
					return
				}
				queriesRun.Add(1)
			}
		}()
	}

	// Live delta ingest interleaved with the migration (interior to the
	// migrating shard, so every copy round has fresh bytes to chase).
	sl1 := f.set.Slices[1]
	deltaIdx := f.globalIndexOf(sl1.Recs[2].Key(), sl1.Recs[2].Tuple.RowID)
	if _, err := f.coord.ApplyDelta(f.mintDelta(deltaIdx, []byte("pre-migration"))); err != nil {
		t.Fatal(err)
	}

	// Shard 1 lives on node 1 (round-robin); migrate it to node 0.
	rep, err := f.coord.Rebalance(1, f.urls[0])
	if err != nil {
		t.Fatalf("rebalance failed: %v", err)
	}
	if rep.From != f.urls[1] || rep.To != f.urls[0] {
		t.Fatalf("unexpected migration endpoints: %+v", rep)
	}
	if rep.DrainErr != "" {
		t.Fatalf("drain failed: %s", rep.DrainErr)
	}

	// Deltas after the swing must land on the target.
	if _, err := f.coord.ApplyDelta(f.mintDelta(deltaIdx, []byte("post-migration"))); err != nil {
		t.Fatalf("post-migration delta rejected: %v", err)
	}

	stop.Store(true)
	wg.Wait()
	if queryErrs.Load() != 0 {
		t.Fatalf("%d queries rejected during migration", queryErrs.Load())
	}
	if queriesRun.Load() == 0 {
		t.Fatal("no queries completed during migration")
	}

	// Placement: node 0 hosts shards 0, 1, 2; node 1 hosts nothing.
	if hosted := f.nodes[0].Stats().Hosted["Uniform"]; len(hosted) != 3 {
		t.Fatalf("node 0 hosts %d shards after migration, want 3", len(hosted))
	}
	if hosted := f.nodes[1].Stats().Hosted["Uniform"]; len(hosted) != 0 {
		t.Fatalf("node 1 still hosts %d shards after drain", len(hosted))
	}
	st := f.coord.Stats()
	if st.Migrations != 1 || st.Routing[1] != f.urls[0] {
		t.Fatalf("coordinator stats after migration: %+v", st)
	}

	// And the moved publication still verifies, with the latest payload.
	rows, err := f.verifyStream(coordTS.URL, q, 8)
	if err != nil {
		t.Fatalf("post-migration stream rejected: %v", err)
	}
	if rows != 96 {
		t.Fatalf("verified %d rows, want 96", rows)
	}
}

// hookTransport fires a callback once, after the first response whose
// request path matches — but only once armed, so fixture setup traffic
// passes through untouched.
type hookTransport struct {
	path  string
	armed atomic.Bool
	once  sync.Once
	hook  func()
	inner http.RoundTripper
}

func (h *hookTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := h.inner.RoundTrip(req)
	if err == nil && req.URL.Path == h.path && h.armed.Load() {
		h.once.Do(h.hook)
	}
	return resp, err
}

// TestDeltaMidMigrationLandsOneSide: a delta that arrives at the source
// after the first copy round must land on exactly one side — the source
// — and force the migration to re-copy before the swing. The final
// publication carries the delta exactly once and verifies.
func TestDeltaMidMigrationLandsOneSide(t *testing.T) {
	ht := &hookTransport{path: "/shard/install", inner: http.DefaultTransport}
	f := newCluster(t, 96, 3, 2, &http.Client{Transport: ht})
	coordTS := httptest.NewServer(f.coord.Handler())
	defer coordTS.Close()

	sl1 := f.set.Slices[1]
	deltaIdx := f.globalIndexOf(sl1.Recs[2].Key(), sl1.Recs[2].Tuple.RowID)
	ht.hook = func() {
		// Fires during Rebalance's first (unlocked) copy round — the
		// control lock is free, so this lands immediately, on the source.
		if _, err := f.coord.ApplyDelta(f.mintDelta(deltaIdx, []byte("mid-migration"))); err != nil {
			t.Errorf("mid-migration delta rejected: %v", err)
		}
	}
	ht.armed.Store(true)

	rep, err := f.coord.Rebalance(1, f.urls[0])
	if err != nil {
		t.Fatalf("rebalance failed: %v", err)
	}
	if rep.CopyRounds < 2 {
		t.Fatalf("migration did not re-copy after the mid-flight delta (rounds=%d)", rep.CopyRounds)
	}

	q := engine.Query{Relation: "Uniform"}
	res, err := collect(f.coord, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.v.VerifyResult(q, f.role, res); err != nil {
		t.Fatalf("post-migration result rejected: %v", err)
	}
	found := 0
	for _, row := range res.Rows() {
		for _, attr := range row.Values {
			if string(attr.Val.Bytes) == "mid-migration" {
				found++
			}
		}
	}
	if found != 1 {
		t.Fatalf("mid-migration payload present %d times, want exactly 1", found)
	}
}

// TestCoordinatorCrashRecovery: a migration interrupted between the
// target install and the routing swing leaves the shard double-hosted;
// a delta then lands on the source, so the copies diverge. A fresh
// coordinator's Recover must catch the divergence by digest compare,
// keep the written-to source copy, and drop the stale transfer.
func TestCoordinatorCrashRecovery(t *testing.T) {
	f := newCluster(t, 96, 3, 2, nil)
	ref := wire.ShardRef{Relation: "Uniform", Shard: 1}
	srcURL, dstURL := f.urls[1], f.urls[0]
	sl1 := f.set.Slices[1]

	// History before the migration: the source has already absorbed
	// writes since its own install, so any recovery rule based on
	// absolute per-copy delta counts would be comparing different
	// baselines — the written-since-install digest signal must not be.
	pre := f.mintDelta(f.globalIndexOf(sl1.Recs[1].Key(), sl1.Recs[1].Tuple.RowID), []byte("pre-copy"))
	if _, err := f.coord.ApplyDelta(pre); err != nil {
		t.Fatal(err)
	}

	// The interrupted migration: copy shard 1 to the target by hand
	// (exactly what Rebalance's copy phase does), then "crash" before
	// any routing swing.
	src := &wire.Client{BaseURL: srcURL}
	dst := &wire.Client{BaseURL: dstURL}
	body, err := src.ShardFetch(ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ShardInstall(body); err != nil {
		body.Close()
		t.Fatalf("install on target: %v", err)
	}
	body.Close()

	// The owner keeps writing; the old coordinator (still routing to the
	// source) applies it there. The copies now diverge.
	d := f.mintDelta(f.globalIndexOf(sl1.Recs[2].Key(), sl1.Recs[2].Tuple.RowID), []byte("diverge"))
	if _, err := f.coord.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}

	// A fresh coordinator recovers from node inventories alone.
	coord2, err := cluster.New(cluster.Config{
		Hasher: f.h,
		Pub:    signKey(t).Public(),
		Params: f.owner.Params,
		Schema: f.owner.Schema,
		Policy: accessctl.NewPolicy(f.role),
		Spec:   f.spec,
		Nodes:  f.urls,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord2.Recover()
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if len(rep.Diverged) != 1 || rep.Diverged[0] != 1 {
		t.Fatalf("divergence not detected: %+v", rep)
	}
	if rep.Assigned[1] != srcURL {
		t.Fatalf("recovery chose %s for shard 1, want the written-to source %s", rep.Assigned[1], srcURL)
	}
	// The stale transfer is gone from the target.
	if hosted := f.nodes[0].Stats().Hosted["Uniform"]; len(hosted) != 2 {
		t.Fatalf("target still hosts %d shards, want its original 2", len(hosted))
	}

	// And the recovered cluster serves the delta'd, verifying state.
	q := engine.Query{Relation: "Uniform"}
	res, err := collect(coord2, "all", q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.v.VerifyResult(q, f.role, res); err != nil {
		t.Fatalf("post-recovery result rejected: %v", err)
	}
}

// TestTamperedTransferRejected: a node must refuse to install a shard
// whose transfer was tampered with — here a flipped signature byte with
// a freshly recomputed slice digest (the digest names truncation and
// corruption; the signature validation names forgery).
func TestTamperedTransferRejected(t *testing.T) {
	f := newCluster(t, 60, 3, 2, nil)

	tampered := f.set.Slices[1].Clone()
	tampered.Own(2).Sig[0] ^= 0x01
	var buf bytes.Buffer
	man := wire.ShardManifest{Spec: f.spec, Shard: 1}
	if err := wire.WriteShardTransfer(&buf, f.h, man, tampered); err != nil {
		t.Fatal(err)
	}
	_, err := (&wire.Client{BaseURL: f.urls[0]}).ShardInstall(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("tampered transfer installed")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("signature")) {
		t.Fatalf("tampered transfer rejected without naming the signature failure: %v", err)
	}
}

// garbageBody is size bytes no decoder accepts — as a frame its length
// prefix claims 4 GiB, as gob a 255-byte message of garbage; read counts
// what was pulled from it.
type garbageBody struct{ size, read int64 }

var garbage = bytes.Repeat([]byte{0xFF}, 32<<10)

func (b *garbageBody) Read(p []byte) (int, error) {
	if b.read == b.size {
		return 0, io.EOF
	}
	n := copy(p[:min(int64(len(p)), b.size-b.read)], garbage)
	b.read += int64(n)
	return n, nil
}
