package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/cache"
	"vcqr/internal/cluster"
	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/server"
	"vcqr/internal/sig"
	"vcqr/internal/store"
	"vcqr/internal/verify"
)

const roleName = "all"

// listener runs an arbitrary handler over real loopback TCP
// (server.Serve is bound to *server.Server).
type listener struct {
	hs  *http.Server
	url string
}

func serveHandler(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln) // returns when close() shuts the server down
	return &listener{hs: hs, url: "http://" + ln.Addr().String()}, nil
}

func (l *listener) close() {
	ctx, cancel := shutdownCtx()
	defer cancel()
	if l.hs.Shutdown(ctx) != nil {
		l.hs.Close()
	}
}

// node is one shard node: a server on a durable store on a listener.
type node struct {
	srv  *server.Server
	hs   *server.HTTPServer
	st   *store.NodeStore
	dir  string
	addr string
}

// setupTimes splits set-up by layer. Total is its wall time, Scaled the
// same in seconds at nominal host speed (what setup_s reports), Speeds
// the calibrations taken between its stages.
type setupTimes struct {
	Sign, Index, Split, BringUp, Place, Warm, Total time.Duration
	Scaled                                          float64
	Speeds                                          []float64
}

// topology is one system under test, brought up in-process over real
// loopback HTTP the way internal/experiments does, and everything the
// harness needs to drive and inspect it from outside.
type topology struct {
	workload string
	cfg      config
	h        *hashx.Hasher
	pub      *sig.PublicKey // the servers' copy of the owner's key
	params   core.Params
	schema   relation.Schema
	role     accessctl.Role
	url      string          // the endpoint clients talk to
	spec     *partition.Spec // nil when unpartitioned

	single   *server.Server
	singleHS *server.HTTPServer

	nodes       []*node
	coord       *cluster.Coordinator
	coordL      *listener
	stopHB      func()
	peer        *cache.Server
	peerL       *listener
	cc          *cache.Client
	clusterRPC  *meter // coordinator -> nodes
	cacheRPC    *meter // coordinator -> cache peer
	times       setupTimes
	oracle      *oracle
	clientMeter *meter // user -> endpoint
}

// bringUp signs nothing: it takes the owner's signed relation, hands the
// servers a clone, and stands the workload's topology up. rec is the
// span recorder of a traced run, nil otherwise.
func bringUp(workload string, cfg config, ds *dataset, dir string, rec *recorder) (*topology, error) {
	t := &topology{
		workload: workload, cfg: cfg, h: ds.h,
		pub:    &sig.PublicKey{N: ds.key.Public().N, E: ds.key.Public().E},
		params: ds.master.Params, schema: ds.master.Schema,
		role:        accessctl.Role{Name: roleName},
		oracle:      newOracle(ds.master),
		clientMeter: newMeter("client.http", nil),
	}
	t.clientMeter.mangle = cfg.MangleClient
	t.times.Sign = ds.signD
	policy := accessctl.NewPolicy(t.role)
	sr := ds.master.Clone() // servers own what they publish

	if workload == wlSingleScan {
		t0 := time.Now()
		if err := sr.BuildAggIndex(t.h, t.pub); err != nil {
			return nil, err
		}
		t.times.Index = time.Since(t0)
		t0 = time.Now()
		t.single = server.New(server.Config{Hasher: t.h, Pub: t.pub, Policy: policy})
		if err := t.single.AddRelation(sr, false); err != nil {
			return nil, err
		}
		hs, err := server.Serve("127.0.0.1:0", t.single)
		if err != nil {
			return nil, err
		}
		t.singleHS = hs
		t.url = "http://" + hs.Addr()
		t.times.BringUp = time.Since(t0)
		return t, nil
	}

	t0 := time.Now()
	set, err := partition.Split(sr, cfg.K)
	if err != nil {
		return nil, err
	}
	t.spec = &set.Spec
	t.times.Split = time.Since(t0)

	t0 = time.Now()
	urls := make([]string, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		n, err := t.startNode(filepath.Join(dir, fmt.Sprintf("node-%d", i)), "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, err
		}
		t.nodes = append(t.nodes, n)
		urls[i] = "http://" + n.addr
	}
	t.clusterRPC = newMeter("cluster.rpc", rec)
	var peerBudget int64
	switch workload {
	case wlClusterHot:
		peerBudget = cfg.HotBudget
	case wlMixedWrite:
		peerBudget = cfg.MixedBudget
	}
	if peerBudget > 0 {
		t.peer = cache.NewServer(peerBudget)
		if t.peerL, err = serveHandler(t.peer.Handler()); err != nil {
			t.close()
			return nil, err
		}
		t.cacheRPC = newMeter("cache.rpc", rec)
		t.cacheRPC.classify = classifyCacheOp
		t.cc = cache.NewClient(cache.Config{
			Peers: []string{t.peerL.url},
			HTTP:  t.cacheRPC.client(cache.DefaultPeerTimeout),
		})
	}
	if t.coord, err = t.newCoordinator(urls); err != nil {
		t.close()
		return nil, err
	}
	t.times.BringUp = time.Since(t0)

	t0 = time.Now()
	if err := t.coord.Place(set); err != nil {
		t.close()
		return nil, fmt.Errorf("place: %w", err)
	}
	t.times.Place = time.Since(t0)

	t0 = time.Now()
	// As vcserve does at R > 1: leases renewed on the default cadence.
	t.stopHB = t.coord.StartHeartbeats(0)
	if t.coordL, err = serveHandler(t.coord.Handler()); err != nil {
		t.close()
		return nil, err
	}
	t.url = t.coordL.url
	t.times.BringUp += time.Since(t0)
	return t, nil
}

func (t *topology) startNode(dir, addr string) (*node, error) {
	st, _, err := store.OpenNode(dir, store.Options{Hasher: t.h, SnapshotEvery: t.cfg.SnapshotEvery})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Hasher: t.h, Pub: t.pub, Policy: accessctl.NewPolicy(t.role), Store: st,
	})
	hs, err := server.Serve(addr, srv)
	if err != nil {
		st.Close()
		return nil, err
	}
	return &node{srv: srv, hs: hs, st: st, dir: dir, addr: hs.Addr()}, nil
}

func (t *topology) newCoordinator(urls []string) (*cluster.Coordinator, error) {
	return cluster.New(cluster.Config{
		Hasher: t.h, Pub: t.pub, Params: t.params, Schema: t.schema,
		Policy: accessctl.NewPolicy(t.role), Spec: *t.spec, Nodes: urls,
		HTTP:      t.clusterRPC.client(0),
		ChunkRows: t.cfg.ChunkRows, Cache: t.cc, Replicas: t.cfg.R,
	})
}

// verifier returns a fresh client-side verifier. Each gets its own copy
// of the public key, so PublicKey.VerifyOps counts the client's
// exponentiations and nobody else's.
func (t *topology) verifier() *verify.Verifier {
	return verify.New(t.h, &sig.PublicKey{N: t.pub.N, E: t.pub.E}, t.params, t.schema)
}

func shutdownCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 5*time.Second)
}

func (t *topology) stopCoordinator() {
	if t.stopHB != nil {
		t.stopHB()
		t.stopHB = nil
	}
	if t.coordL != nil {
		t.coordL.close()
		t.coordL = nil
	}
	if t.coord != nil {
		t.coord.Close()
		t.coord = nil
	}
}

func (t *topology) stopNodes() {
	for _, n := range t.nodes {
		ctx, cancel := shutdownCtx()
		n.hs.Shutdown(ctx)
		cancel()
		n.st.Close()
	}
}

// close stops every listener and goroutine the topology started and
// waits for them.
func (t *topology) close() {
	t.clientMeter.close()
	if t.singleHS != nil {
		ctx, cancel := shutdownCtx()
		t.singleHS.Shutdown(ctx)
		cancel()
	}
	t.stopCoordinator()
	if t.peerL != nil {
		t.peerL.close()
	}
	t.stopNodes()
	t.nodes = nil
	if t.clusterRPC != nil {
		t.clusterRPC.close()
	}
	if t.cacheRPC != nil {
		t.cacheRPC.close()
	}
}

// settleFills waits until every cache fill the coordinator has pushed
// has been answered by the peer. Fill.Commit PUTs asynchronously; a pass
// whose counters must repeat exactly cannot race its own fills. The
// RoundTripper on the cache client sees each PUT end.
func (t *topology) settleFills() {
	if t.cc == nil {
		return
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if uint64(t.cacheRPC.endedCount("/cache:put")) >= t.cc.Stats().Fills {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// restart is the durability check's cold start: stop the coordinator and
// every node, reopen the nodes' data dirs on the same addresses,
// RecoverHosted each, and let a fresh coordinator adopt what they host.
// It returns how long reopen + recovery took.
func (t *topology) restart() (time.Duration, error) {
	t.stopCoordinator()
	t.stopNodes()
	old := t.nodes
	t.nodes = nil
	urls := make([]string, len(old))
	t0 := time.Now()
	for i, o := range old {
		n, err := t.startNode(o.dir, o.addr)
		if err != nil {
			return 0, fmt.Errorf("reopen node %d: %w", i, err)
		}
		t.nodes = append(t.nodes, n)
		urls[i] = "http://" + n.addr
		rep, err := n.srv.RecoverHosted()
		if err != nil {
			return 0, fmt.Errorf("node %d recovery: %w", i, err)
		}
		if len(rep.Refused) > 0 {
			return 0, fmt.Errorf("node %d refused recovered slices: %v", i, rep.Refused)
		}
	}
	replay := time.Since(t0)
	var err error
	if t.coord, err = t.newCoordinator(urls); err != nil {
		return 0, err
	}
	if _, err := t.coord.Recover(); err != nil {
		return 0, fmt.Errorf("coordinator recovery: %w", err)
	}
	if t.coordL, err = serveHandler(t.coord.Handler()); err != nil {
		return 0, err
	}
	t.url = t.coordL.url
	for i, n := range t.nodes {
		if got := n.srv.Stats().Installs; got != 0 {
			return 0, fmt.Errorf("node %d took %d installs after restart, want 0", i, got)
		}
	}
	return replay, nil
}
