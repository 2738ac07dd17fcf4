// Command vcserve runs the serving side of the Figure 3 deployment in
// one of three modes:
//
//   - single process (default): a concurrent publisher (internal/server)
//     hosting a publication of one or more range shards, loaded from a
//     vcsign publication file (-load) or self-signed in-process for
//     demos.
//   - shard node (-node): an empty publisher that hosts individual shard
//     slices installed, migrated and removed by a cluster coordinator.
//     It needs only the owner's client parameters (-params) — a node
//     never sees the signing key and is never trusted.
//   - coordinator (-coordinator): the control plane of a cluster
//     (internal/cluster): owns the authenticated partition spec and the
//     routing table, places slices across -nodes, fans queries out as
//     verified merged streams, routes owner deltas, and migrates shard
//     spans online (POST /admin/rebalance). With -adopt it rebuilds its
//     routing table from what the nodes already host instead of loading
//     a snapshot — the restart path. With -cache-peers it consults the
//     edge-cache tier before fanning out. With -replicas R every shard
//     installs on R distinct nodes: queries pick the least-loaded live
//     replica, lease heartbeats (-lease-ttl, -heartbeat) demote dead
//     nodes from routing, and mid-stream failures resume byte-exactly
//     on a sibling copy.
//   - edge-cache peer (-cache-node): an untrusted, memcached-shaped
//     byte cache (internal/cache) the coordinator fills and reads. It
//     needs no keys and no params: anything it garbles or forges fails
//     digest and seam checks and the query falls through to origin.
//
// The user-facing endpoints (/stream, /delta, /healthz, /statsz) are
// identical in single-process and coordinator modes, so vcquery works
// against either unchanged. See docs/OPERATIONS.md for the
// operator's handbook.
//
// Usage:
//
//	vcserve -load emp.vcqr -params params.vcqr -addr :8080
//	vcserve -n 1000 -shards 4 -params params.vcqr       # sharded demo
//	vcserve -node -params params.vcqr -addr :8081       # shard node
//	vcserve -coordinator -load emp.vcqr -params params.vcqr \
//	    -nodes http://127.0.0.1:8081,http://127.0.0.1:8082 -addr :8080
//	vcserve -coordinator -adopt -params params.vcqr \
//	    -nodes http://127.0.0.1:8081,http://127.0.0.1:8082 -addr :8080
//	vcserve -coordinator -load emp.vcqr -params params.vcqr -replicas 2 \
//	    -nodes http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083 \
//	    -lease-ttl 5s -addr :8080                      # R-way replication
//	vcserve -cache-node -cache-bytes 268435456 -addr :8090   # cache peer
//	vcserve -coordinator -load emp.vcqr -params params.vcqr \
//	    -nodes ... -cache-peers http://127.0.0.1:8090 -addr :8080
//
// Query it with cmd/vcquery.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"maps"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/cache"
	"vcqr/internal/cluster"
	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/owner"
	"vcqr/internal/partition"
	"vcqr/internal/server"
	"vcqr/internal/sig"
	"vcqr/internal/store"
	"vcqr/internal/wire"
	"vcqr/internal/workload"
)

// Observability flags shared by every serving mode. The query port
// already serves /metrics, /metrics.json and /debug/...; -debug-addr
// additionally serves the debug surface on its own listener for
// deployments that firewall diagnostics away from query traffic.
var (
	debugAddr string
	slowQuery time.Duration
)

// serveDebug starts the standalone debug listener when -debug-addr is
// set: expvar, pprof and the slow-query log, off the query port.
func serveDebug(slow *obs.SlowLog) {
	if debugAddr == "" {
		return
	}
	mux := obs.DebugMux(slow)
	go func() {
		log.Printf("debug surface (expvar, pprof, slowlog) on %s", debugAddr)
		if err := http.ListenAndServe(debugAddr, mux); err != nil {
			log.Printf("debug listener: %v", err)
		}
	}()
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	load := flag.String("load", "", "publication file from vcsign (empty = generate in-process)")
	n := flag.Int("n", 500, "records to generate when -load is empty")
	seed := flag.Int64("seed", 1, "workload seed when -load is empty")
	shards := flag.Int("shards", 1, "range-partition the in-process publication (ignored with -load)")
	paramsPath := flag.String("params", "params.vcqr", "client parameters file (read with -load/-node/-coordinator, written otherwise)")
	nodeMode := flag.Bool("node", false, "run as a shard node awaiting coordinator installs")
	coordMode := flag.Bool("coordinator", false, "run as a cluster coordinator over -nodes")
	cacheMode := flag.Bool("cache-node", false, "run as an untrusted edge-cache peer (internal/cache)")
	cacheBytes := flag.Int64("cache-bytes", 0, "cache peer byte budget (0 = default 256 MiB)")
	cachePeers := flag.String("cache-peers", "", "comma-separated cache-peer base URLs (coordinator mode; empty disables the tier)")
	nodesFlag := flag.String("nodes", "", "comma-separated shard-node base URLs (coordinator mode)")
	adopt := flag.Bool("adopt", false, "coordinator mode: recover the routing table from node inventories instead of loading a snapshot")
	replicas := flag.Int("replicas", 1, "coordinator mode: replication factor R — every shard's slice installs on R distinct nodes and queries pick the least-loaded live replica (clamped to the node count)")
	leaseTTL := flag.Duration("lease-ttl", 0, "coordinator mode: how long one acknowledged heartbeat keeps a node live for routing; expiry demotes, never deletes (0 = default 15s)")
	heartbeat := flag.Duration("heartbeat", 0, "coordinator mode: lease heartbeat interval (0 = lease-ttl/3)")
	dataDir := flag.String("data-dir", "", "durable storage directory: node mode logs installs and deltas to a crash-safe WAL and recovers them on restart; coordinator mode persists routing epochs and staged delta tokens; other modes refuse it (empty = memory-only)")
	snapshotEvery := flag.Int("snapshot-every", 0, "node mode with -data-dir: compact the WAL (rewrite it as one record per hosted slice) every N appends (0 = default 64, negative disables)")
	flag.StringVar(&debugAddr, "debug-addr", "", "serve expvar/pprof/slowlog on a separate listener (empty = query port only)")
	flag.DurationVar(&slowQuery, "slow-query", 0, "slow-query log retention threshold, e.g. 250ms (0 = default 100ms, negative disables)")
	flag.Parse()

	modes := 0
	for _, m := range []bool{*nodeMode, *coordMode, *cacheMode} {
		if m {
			modes++
		}
	}
	// Durability reaches only the modes that keep a disk image; any
	// other mode would run memory-only while its operator believes it
	// durable, so the combination is refused before anything starts.
	if *dataDir != "" && !*nodeMode && !*coordMode {
		log.Fatal("-data-dir is accepted only with -node or -coordinator; single-process and -cache-node servers are memory-only")
	}
	if *snapshotEvery != 0 && (!*nodeMode || *dataDir == "") {
		log.Fatal("-snapshot-every is accepted only with -node and -data-dir")
	}
	switch {
	case modes > 1:
		log.Fatal("-node, -coordinator and -cache-node are mutually exclusive")
	case *cacheMode:
		runCachePeer(*addr, *cacheBytes)
	case *nodeMode:
		runNode(*addr, *paramsPath, *dataDir, *snapshotEvery)
	case *coordMode:
		runCoordinator(*addr, *load, *paramsPath, *nodesFlag, *cachePeers, *adopt, *replicas, *leaseTTL, *heartbeat, *dataDir)
	default:
		runSingle(*addr, *load, *paramsPath, *n, *seed, *shards)
	}
}

// runCachePeer starts an untrusted edge-cache peer: no keys, no params,
// no relation state — just a byte-budgeted entry table behind the wire
// cache protocol.
func runCachePeer(addr string, budget int64) {
	cs := cache.NewServer(budget)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: cs.Handler(), ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	var serveErr error
	go func() {
		if err := hs.Serve(ln); err != http.ErrServerClosed {
			serveErr = err
		}
		close(done)
	}()
	st := cs.Store().Stats()
	fmt.Printf("edge-cache peer on %s (budget %d bytes; untrusted, stores opaque bytes)\n", ln.Addr(), st.Budget)
	waitAndShutdown(hs.Shutdown, func() <-chan struct{} { return done }, func() error { return serveErr })
	st = cs.Store().Stats()
	log.Printf("served %d hits / %d misses, %d entries resident; bye", st.Hits, st.Misses, st.Entries)
}

// policyFrom rebuilds the role policy from the distributed parameters.
func policyFrom(cp wire.ClientParams) accessctl.Policy {
	return accessctl.NewPolicy(slices.Collect(maps.Values(cp.Roles))...)
}

// runNode starts an empty shard node: everything it will serve arrives
// later over /shard/install from a coordinator — or, with -data-dir,
// from the node's own crash-safe WAL, self-checked against the owner's
// public key before a byte of it is served.
func runNode(addr, paramsPath, dataDir string, snapshotEvery int) {
	cp, err := wire.ReadClientParams(paramsPath)
	if err != nil {
		log.Fatal(err)
	}
	var nstore *store.NodeStore
	if dataDir != "" {
		ns, rep, err := store.OpenNode(dataDir, store.Options{
			Hasher:        hashx.New(),
			SnapshotEvery: snapshotEvery,
		})
		if errors.Is(err, store.ErrWALCorrupt) {
			log.Fatalf("durable store: %v (damage other than a mid-append crash: acknowledged records follow it, so the log was left as it is; restore it, or empty the data dir and let the coordinator re-install)", err)
		}
		if err != nil {
			log.Fatalf("durable store: %v", err)
		}
		defer ns.Close()
		nstore = ns
		if rep.TornTail != nil {
			log.Printf("WAL tail torn (mid-append crash), truncated: %v", rep.TornTail)
		}
		log.Printf("durable store %s: %d WAL records replayed", dataDir, rep.Replayed)
	}
	s := server.New(server.Config{
		Hasher:        hashx.New(),
		Pub:           &sig.PublicKey{N: cp.N, E: cp.E},
		Policy:        policyFrom(cp),
		SlowThreshold: slowQuery,
		Store:         nstore,
	})
	if nstore != nil {
		rep, err := s.RecoverHosted()
		if err != nil {
			log.Fatalf("recovery: %v", err)
		}
		for _, r := range rep.Refused {
			log.Printf("WARNING: refused recovered slice %s (coordinator will re-install)", r)
		}
		if len(rep.Published) > 0 {
			log.Printf("recovered %d slices from disk, self-checked against the owner's key: %s",
				len(rep.Published), strings.Join(rep.Published, ", "))
		}
	}
	serveDebug(s.Obs().Slow)
	hs, err := server.Serve(addr, s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shard node ready on %s (awaiting coordinator installs)\n", hs.Addr())
	waitAndShutdown(func(ctx context.Context) error { return hs.Shutdown(ctx) }, hs.Done, hs.Err)
	st := s.Stats()
	log.Printf("served %d shard sub-streams, %d deltas; bye", st.ShardStreams, st.DeltasApplied)
}

// runCoordinator starts the cluster control plane and user-facing API.
func runCoordinator(addr, load, paramsPath, nodesFlag, cachePeers string, adopt bool, replicas int, leaseTTL, heartbeat time.Duration, dataDir string) {
	cp, err := wire.ReadClientParams(paramsPath)
	if err != nil {
		log.Fatal(err)
	}
	var clog *store.CoordLog
	if dataDir != "" {
		cl, crep, err := store.OpenCoord(dataDir, store.CoordOptions{})
		if errors.Is(err, store.ErrWALCorrupt) {
			log.Fatalf("coordinator log: %v (damage other than a mid-append crash: acknowledged records follow it, so the log was left as it is; restore it, or empty the data dir)", err)
		}
		if err != nil {
			log.Fatalf("coordinator log: %v", err)
		}
		defer cl.Close()
		clog = cl
		if crep.TornTail != nil {
			log.Printf("coordinator log tail torn (mid-append crash), truncated: %v", crep.TornTail)
		}
		log.Printf("coordinator log %s: %d records replayed, routing epoch %d, %d open staged deltas",
			dataDir, crep.Replayed, crep.RoutingEpoch, len(crep.OpenStaged))
	}
	nodes := strings.Split(nodesFlag, ",")
	if nodesFlag == "" || len(nodes) == 0 {
		log.Fatal("coordinator mode needs -nodes url1,url2,...")
	}
	h := hashx.New()
	pub := &sig.PublicKey{N: cp.N, E: cp.E}

	var spec partition.Spec
	var set *partition.Set
	switch {
	case adopt:
		if cp.Partition == nil {
			log.Fatal("-adopt needs the partition spec in the params file (vcsign -shards)")
		}
		spec = *cp.Partition
	case load != "":
		blob, err := os.ReadFile(load)
		if err != nil {
			log.Fatal(err)
		}
		if set, err = wire.DecodePublication(blob); err != nil {
			log.Fatal(err)
		}
		if set.Spec.K() < 2 {
			log.Fatal("coordinator mode needs a partitioned publication (vcsign -shards K), not a one-shard one")
		}
		spec = set.Spec
		log.Printf("validating %d-shard snapshot against the owner's key...", spec.K())
		if err := set.Validate(h, pub); err != nil {
			log.Fatalf("snapshot failed ingest validation: %v", err)
		}
	default:
		log.Fatal("coordinator mode needs -load snapshot or -adopt")
	}

	// One registry shared by the coordinator and the cache-tier client,
	// so cache_get/cache_fill histograms land on the same /metrics the
	// serving stages do.
	reg := obs.NewRegistry()
	var cacheClient *cache.Client
	if cachePeers != "" {
		peers := strings.Split(cachePeers, ",")
		cacheClient = cache.NewClient(cache.Config{Peers: peers, Obs: reg})
		log.Printf("edge-cache tier enabled over %d peers (untrusted; entries verify or fall through)", len(peers))
	}
	coord, err := cluster.New(cluster.Config{
		Hasher:        h,
		Pub:           pub,
		Params:        cp.Params,
		Schema:        cp.Schema,
		Policy:        policyFrom(cp),
		Spec:          spec,
		Nodes:         nodes,
		Cache:         cacheClient,
		Obs:           reg,
		SlowThreshold: slowQuery,
		Replicas:      replicas,
		LeaseTTL:      leaseTTL,
		Advertise:     addr,
		Log:           clog,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	serveDebug(coord.Obs().Slow)
	if adopt {
		rep, err := coord.Recover()
		if err != nil {
			log.Fatalf("recovery: %v", err)
		}
		if len(rep.Diverged) > 0 {
			log.Printf("WARNING: recovery found diverged copies of shards %v; kept the written-to copy, dropped %v — verify with /shard/digest (see docs/OPERATIONS.md)", rep.Diverged, rep.DroppedCopies)
		}
		if len(rep.Ambiguous) > 0 {
			log.Printf("WARNING: divergence of shards %v is ambiguous (both copies written since install); kept node-order copy — treat as suspect, the owner snapshot is the source of truth (see docs/OPERATIONS.md)", rep.Ambiguous)
		}
		if len(rep.OpenStaged) > 0 {
			log.Printf("WARNING: deltas to %v were staged but not confirmed committed before the crash; compare /shard/digest against the owner's expected post-state (see docs/OPERATIONS.md)", rep.OpenStaged)
		}
		log.Printf("recovered routing for %d shards from node inventories", len(rep.Assigned))
	} else {
		log.Printf("placing %d shards across %d nodes...", spec.K(), len(nodes))
		if err := coord.Place(set); err != nil {
			log.Fatalf("placement: %v", err)
		}
	}
	if replicas > 1 {
		for i, set := range coord.ReplicaSets() {
			log.Printf("  shard %d -> %s", i, strings.Join(set, ", "))
		}
	} else {
		for i, url := range coord.Routing() {
			log.Printf("  shard %d -> %s", i, url)
		}
	}
	if replicas > 1 || heartbeat > 0 {
		stopHB := coord.StartHeartbeats(heartbeat)
		defer stopHB()
		ttl := leaseTTL
		if ttl == 0 {
			ttl = cluster.DefaultLeaseTTL
		}
		log.Printf("lease heartbeats running (R=%d, TTL %v); expired nodes demote from routing", replicas, ttl)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: coord.Handler(), ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	var serveErr error
	go func() {
		if err := hs.Serve(ln); err != http.ErrServerClosed {
			serveErr = err
		}
		close(done)
	}()
	fmt.Printf("coordinator serving %q (%d shards on %d nodes) on %s\n",
		spec.Relation, spec.K(), len(nodes), ln.Addr())
	waitAndShutdown(hs.Shutdown, func() <-chan struct{} { return done }, func() error { return serveErr })
	st := coord.Stats()
	log.Printf("served %d queries (%d fan-outs, %d deltas, %d migrations, %d failovers, %d demotions, routing epoch %d); bye",
		st.Queries, st.Fanouts, st.DeltasApplied, st.Migrations, st.Failovers, st.Demotions, st.RoutingEpoch)
}

// waitAndShutdown blocks on SIGINT/SIGTERM or serve-loop death, then
// drains gracefully.
func waitAndShutdown(shutdown func(context.Context) error, done func() <-chan struct{}, serveErr func() error) {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case <-stop:
	case <-done():
		log.Fatalf("server terminated: %v", serveErr())
	}
	log.Printf("shutting down (draining in-flight requests)...")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
}

// runSingle is the original single-process publisher.
func runSingle(addr, load, paramsPath string, n int, seed int64, shards int) {
	h := hashx.New()
	var (
		set *partition.Set
		cp  wire.ClientParams
	)
	if load != "" {
		blob, err := os.ReadFile(load)
		if err != nil {
			log.Fatal(err)
		}
		if set, err = wire.DecodePublication(blob); err != nil {
			log.Fatal(err)
		}
		if cp, err = wire.ReadClientParams(paramsPath); err != nil {
			log.Fatal(err)
		}
	} else {
		o, err := owner.New(h, 0)
		if err != nil {
			log.Fatal(err)
		}
		rel, err := workload.Employees(workload.EmployeeConfig{
			N: n, L: 0, U: 1 << 32, PhotoSize: 64, HiddenPct: 10, Seed: seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("signing %d records (one chained signature each)...", rel.Len())
		sr, err := o.Publish(rel, core.DefaultBase)
		if err != nil {
			log.Fatal(err)
		}
		cp = wire.ClientParams{
			N: o.PublicKey().N, E: o.PublicKey().E, Params: sr.Params, Schema: sr.Schema,
			Roles: map[string]accessctl.Role{
				"manager": {Name: "manager"},
				"exec":    {Name: "exec", KeyHi: 1 << 30},
				"clerk":   {Name: "clerk", VisibilityCol: "vis_clerk"},
			},
		}
		if set, err = partition.Split(sr, shards); err != nil {
			log.Fatal(err)
		}
		if shards > 1 {
			cp.Partition = &set.Spec
		}
		if err := wire.WriteClientParams(paramsPath, cp); err != nil {
			log.Fatal(err)
		}
		log.Printf("client parameters written to %s", paramsPath)
	}

	s := server.New(server.Config{
		Hasher:        h,
		Pub:           &sig.PublicKey{N: cp.N, E: cp.E},
		Policy:        policyFrom(cp),
		SlowThreshold: slowQuery,
	})
	serveDebug(s.Obs().Slow)
	if err := s.AddPartition(set, true); err != nil {
		log.Fatalf("publication failed ingest validation: %v", err)
	}
	name, records := set.Spec.Relation, 0
	for _, sl := range set.Slices {
		records += sl.Len()
	}
	log.Printf("hosting %q as %d shards (%d records, per-shard epochs)", name, set.Spec.K(), records)

	hs, err := server.Serve(addr, s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("publisher serving %q (%d records) on %s\n", name, records, hs.Addr())
	waitAndShutdown(func(ctx context.Context) error { return hs.Shutdown(ctx) }, hs.Done, hs.Err)
	st := s.Stats()
	log.Printf("served %d queries (%d deltas); bye", st.Queries, st.DeltasApplied)
}
