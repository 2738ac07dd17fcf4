package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"vcqr/internal/sig"
	"vcqr/internal/wire"
)

// tracedResult is one workload's traced pass, reduced.
type tracedResult struct {
	metrics   metrics
	diag      metrics
	attempted int
	hashes    map[string]string
	rec       *recorder
}

// step is one operation of a pass: a read of seq[query], or the write of
// ups[update] — due at `due` after the pass started when the pass keeps
// a schedule.
type step struct {
	query  int
	update int // -1 = a read
	due    time.Duration
}

// readsPerDelta is the read share of cluster-mixed-write's traced script.
const readsPerDelta = 4

// script is the traced pass's fixed operation list, so its counters
// repeat exactly from run to run: the reads, then the writes. Read-only
// workloads read n ranges and afterwards replay the deltas closed-loop.
// cluster-mixed-write has no separate write part: it keeps the writer's
// schedule with ONE thread — every delta is due on a fixed grid and
// readsPerDelta reads follow it — so invalidation lands beside hits in a
// fixed order while due-time latency and lateness stay real measurements.
func script(workload string, cfg config, firstUpdate int) (reads, writes []step) {
	var out []step
	if workload == wlMixedWrite {
		// Twice the measured phase's rate: the single thread must finish
		// a delta and its reads inside one grid slot.
		slot := time.Duration(float64(time.Second) / (2 * cfg.WriteRate))
		for i := 0; i < cfg.TraceDeltas; i++ {
			out = append(out, step{update: firstUpdate + i, due: time.Duration(i) * slot})
			for j := 0; j < readsPerDelta; j++ {
				out = append(out, step{query: readsPerDelta*i + j, update: -1})
			}
		}
		return out, nil
	}
	n := cfg.TraceQueries
	if workload == wlClusterHot {
		n = cfg.TraceQueriesHot
	}
	for i := 0; i < n; i++ {
		out = append(out, step{query: i, update: -1})
	}
	for i := 0; i < cfg.TraceDeltas; i++ {
		writes = append(writes, step{update: firstUpdate + i, due: -1})
	}
	return out, writes
}

// passResult is what one pass over a script observed.
type passResult struct {
	reads   []tracedAnswer
	commit  []time.Duration
	late    []time.Duration
	acked   int
	clientV uint64 // the client's public-key exponentiations
}

// then appends a later pass's observations.
func (pr *passResult) then(o *passResult) {
	pr.reads = append(pr.reads, o.reads...)
	pr.commit = append(pr.commit, o.commit...)
	pr.late = append(pr.late, o.late...)
	pr.acked += o.acked
	pr.clientV += o.clientV
}

// runPass executes a script with one user. With a recorder the reads go
// through the unrolled, span-emitting client loop; without, through
// wire.Client exactly like the measured phase.
func (t *topology) runPass(steps []step, in *inputs, ups []update, rec *recorder) (*passResult, error) {
	pr := &passResult{}
	freeMemory() // no pass pays for the garbage of what ran before it
	u := t.newUser(t.clientMeter.client(0))
	owner := &wire.Client{BaseURL: t.url, HTTP: t.clientMeter.client(0)}
	start := time.Now()
	for _, s := range steps {
		if s.update < 0 {
			r := in.seq[s.query%len(in.seq)]
			var a tracedAnswer
			var err error
			if rec != nil {
				a, err = u.tracedQuery(r, rec)
			} else {
				a.answer, err = u.query(r)
			}
			if err == nil {
				err = t.check(r, a.answer)
			}
			if err != nil {
				return nil, fmt.Errorf("query %d: %w", s.query, err)
			}
			pr.reads = append(pr.reads, a)
			t.settleFills()
			continue
		}
		from := time.Now()
		if s.due >= 0 {
			due := start.Add(s.due)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			pr.late = append(pr.late, time.Since(due))
			from = due
		}
		reqID := rec.begin()
		t0 := time.Now()
		root := rec.reserve(reqID, "owner.delta", 0, t0)
		_, err := owner.SendDelta(ups[s.update].d)
		end := time.Now()
		rec.finish(root, end)
		if err != nil {
			return nil, fmt.Errorf("delta %d: %w", s.update, err)
		}
		pr.commit = append(pr.commit, end.Sub(from))
		// What the readers may now see includes this update.
		t.oracle.applied(ups[s.update : s.update+1])
		pr.acked++
	}
	pr.clientV = u.v.Pub.VerifyOps()
	return pr, nil
}

// serviceQPS is the throughput of one closed-loop client: reads per
// second of read service time.
func serviceQPS(reads []tracedAnswer) float64 {
	var total time.Duration
	for _, a := range reads {
		total += a.lat
	}
	return ratio(float64(len(reads)), total.Seconds())
}

// counters snapshots every tier's own counters, summed over nodes.
type counters struct {
	shardStreams, walAppends, snapshots uint64
	failovers, routingRetries           uint64
	hits, misses, collapsed             uint64
	peerInvalidations, evictions        uint64
	resident                            int64
}

func (t *topology) counters() counters {
	var c counters
	for _, n := range t.nodes {
		c.shardStreams += n.srv.Stats().ShardStreams
		st := n.st.Stats()
		c.walAppends += st.WALAppends
		c.snapshots += st.Snapshots
	}
	if t.coord != nil {
		st := t.coord.Stats()
		c.failovers, c.routingRetries = st.Failovers, st.RoutingRetries
	}
	if t.cc != nil {
		st := t.cc.Stats()
		c.hits, c.misses, c.collapsed = st.Hits, st.Misses, st.Collapsed
		ps := t.peer.Store().Stats()
		c.peerInvalidations, c.evictions, c.resident = ps.Invalidations, ps.Evictions, ps.Bytes
	}
	return c
}

// runTraced is the per-layer run: its own set-up, an untraced pass over
// the fixed script (the overhead baseline), the traced pass, an
// in-process drain of the serving entry point, and the direct layer
// benchmarks. One client throughout.
func runTraced(workload string, cfg config, key *sig.PrivateKey, seed int64, outDir string) (*tracedResult, error) {
	res := &tracedResult{rec: newRecorder()}
	dir := dataDir(outDir, workload, "traced")
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	t, ds, in, err := setUp(workload, cfg, key, seed, dir, res.rec)
	if err != nil {
		return nil, err
	}
	defer t.close()
	urng := rand.New(rand.NewSource(classSeed(seed, "updates")))
	ups, uhash, err := presignUpdates(ds, cfg, urng, 2*cfg.TraceDeltas)
	if err != nil {
		return nil, err
	}
	in.hashes["deltas"] = uhash
	res.hashes = in.hashes

	// Untraced baseline: the script's read part only (which, on the
	// write workload, carries its deltas).
	base, _ := script(workload, cfg, 0)
	speeds := []float64{hostSpeed(cfg.Calib)}
	whole := mark()
	bp, err := t.runPass(base, in, ups, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: untraced pass: %w", workload, err)
	}
	untracedShare := whole.since().share()
	speeds = append(speeds, hostSpeed(cfg.Calib))

	// The traced pass, counters taken around its read and write parts.
	reads, writes := script(workload, cfg, bp.acked)
	if t.clusterRPC != nil {
		t.clusterRPC.snapshot()
	}
	if t.cacheRPC != nil {
		t.cacheRPC.snapshot()
	}
	res.rec.on.Store(true)
	c0 := t.counters()
	from := mark()
	tp, err := t.runPass(reads, in, ups, res.rec)
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", workload, err)
	}
	tracedShare := from.since().share()
	c1 := t.counters()
	around := [2][2]counters{{c0, c1}, {c0, c1}} // interleaved: one span of counters serves both
	if len(writes) > 0 {
		wp, err := t.runPass(writes, in, ups, res.rec)
		if err != nil {
			return nil, fmt.Errorf("%s: traced deltas: %w", workload, err)
		}
		tp.then(wp)
		around[1] = [2]counters{c1, t.counters()}
	}
	res.rec.on.Store(false)
	speeds = append(speeds, hostSpeed(cfg.Calib))
	res.attempted = len(bp.reads) + bp.acked + len(tp.reads) + tp.acked

	m := &res.metrics
	if err := runLayers(cfg, ds, ups, seed, dir, m); err != nil {
		return nil, fmt.Errorf("%s: layer benchmarks: %w", workload, err)
	}
	t.reduceTraced(m, &res.diag, tp, around[0], around[1], res.rec)
	if err := t.inprocPass(m, in, res.rec); err != nil {
		return nil, fmt.Errorf("%s: in-process pass: %w", workload, err)
	}

	// Durability: everything acknowledged is readable, and — on the
	// write workload — still readable after a restart from disk alone.
	res.attempted++
	if err := t.verifyFinalScan(nil); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	replay := nan
	if workload == wlMixedWrite {
		d, err := t.restart()
		if err != nil {
			return nil, fmt.Errorf("%s: restart: %w", workload, err)
		}
		if err := t.verifyFinalScan(nil); err != nil {
			return nil, fmt.Errorf("%s: after restart: %w", workload, err)
		}
		replay = ms(d)
	}
	m.put("store.replay_ms", "ms", replay)
	speeds = append(speeds, hostSpeed(cfg.Calib))
	// Every timing above is reported at nominal host speed (calib.go);
	// one factor serves the whole traced run, which lasts seconds.
	scale := median(speeds) * whole.since().share()
	m.scaleTimes(scale)
	res.diag.scaleTimes(scale)
	res.diag.put("host.scale_traced", "ratio", scale)
	untraced := serviceQPS(bp.reads) / untracedShare / ((speeds[0] + speeds[1]) / 2)
	traced := serviceQPS(tp.reads) / tracedShare / ((speeds[1] + speeds[2]) / 2)
	m.put("trace.overhead_pct", "%", 100*(untraced/traced-1))
	return res, nil
}

// reduceTraced turns the traced pass into the per-layer metrics that
// come from the system in place: the client loop's own split, the
// RoundTrippers' view of every RPC, and each tier's counters.
// rd and wr are the tiers' counters before and after the pass's reads
// and writes.
func (t *topology) reduceTraced(m, diag *metrics, tp *passResult, rd, wr [2]counters, rec *recorder) {
	nq := float64(len(tp.reads))
	nd := float64(tp.acked)
	var rows, lat, parts, decode, verify, consume float64
	var waitH, bodyW, finish []float64
	for _, a := range tp.reads {
		rows += float64(a.rows)
		lat += us(a.lat)
		parts += us(a.waitHeaders + a.bodyWait + a.decode + a.verify)
		decode += us(a.decode)
		verify += us(a.verify)
		consume += us(a.consume)
		waitH = append(waitH, ms(a.waitHeaders))
		bodyW = append(bodyW, ms(a.bodyWait))
		finish = append(finish, us(a.finish))
	}

	m.put("verify.consume_us_per_row", "us", ratio(consume, rows))
	m.put("verify.finish_us_per_query", "us", median(finish))
	m.put("sig.verify_ops_per_query", "count", ratio(float64(tp.clientV), nq))

	m.put("client.wait_headers_ms", "ms", median(waitH))
	m.put("client.body_read_wait_ms", "ms", median(bodyW))
	m.put("client.decode_us_per_row", "us", ratio(decode, rows))
	m.put("client.verify_us_per_row", "us", ratio(verify, rows))
	m.put("client.unattributed_ratio", "ratio", 1-ratio(parts, lat))

	ttfb := nan
	if t.workload == wlSingleScan {
		ttfb = median(waitH)
	}
	m.put("server.http_ttfb_ms", "ms", ttfb)

	// cluster: what the coordinator's HTTP client did, keyed by path.
	rpc := map[string]*rpcStat{}
	if t.clusterRPC != nil {
		rpc = t.clusterRPC.snapshot()
	}
	stat := func(path string) *rpcStat {
		if s := rpc[path]; s != nil {
			return s
		}
		return &rpcStat{}
	}
	sub, edges := stat("/shard/stream"), stat("/shard/edges")
	clustered := t.coord != nil
	onCluster := func(v float64) float64 {
		if !clustered {
			return nan
		}
		return v
	}
	m.put("cluster.place_ms", "ms", onCluster(ms(t.times.Place)))
	m.put("cluster.rpcs_per_query", "count", onCluster(ratio(float64(sub.N+edges.N), nq)))
	m.put("cluster.rpc_substream_ttfb_ms", "ms", onCluster(median(sub.TTFB)))
	m.put("cluster.rpc_substream_ms", "ms", onCluster(median(sub.Total)))
	m.put("cluster.rpc_substream_bytes_per_row", "B", onCluster(ratio(float64(sub.Bytes), rows)))
	deltaRPCs := stat("/node/delta").N + stat("/node/mirror").N + stat("/node/tx").N
	var apply []float64
	deltaNS, _ := rec.selfTimes("owner.delta", func(string) bool { return false })
	for _, d := range deltaNS {
		apply = append(apply, d/1e6)
	}
	m.put("cluster.delta_apply_ms", "ms", onCluster(median(apply)))
	m.put("cluster.delta_rpcs_per_delta", "count", onCluster(ratio(float64(deltaRPCs), nd)))
	m.put("cluster.failovers", "count", onCluster(float64(wr[1].failovers-rd[0].failovers)))
	m.put("cluster.routing_retries", "count", onCluster(float64(wr[1].routingRetries-rd[0].routingRetries)))

	// cache: the coordinator-side client's counters, the peer's RPCs as
	// the RoundTripper saw them, and the peer's table at the end.
	cached := t.cc != nil
	onCache := func(v float64) float64 {
		if !cached {
			return nan
		}
		return v
	}
	crpc := map[string]*rpcStat{}
	if cached {
		crpc = t.cacheRPC.snapshot()
	}
	cstat := func(op string) []float64 {
		if s := crpc["/cache"+op]; s != nil {
			return s.Total
		}
		return nil
	}
	hits := float64(rd[1].hits - rd[0].hits)
	lookups := hits + float64(rd[1].misses-rd[0].misses)
	m.put("cache.hit_ratio", "ratio", onCache(ratio(hits, lookups)))
	m.put("cache.collapsed_ratio", "ratio", onCache(ratio(float64(rd[1].collapsed-rd[0].collapsed), lookups)))
	m.put("cache.origin_substreams_per_query", "count", onCluster(ratio(float64(rd[1].shardStreams-rd[0].shardStreams), nq)))
	m.put("cache.peer_get_ms", "ms", onCache(median(cstat(":get"))))
	m.put("cache.peer_put_ms", "ms", onCache(median(cstat(":put"))))
	m.put("cache.invalidations_per_delta", "count", onCache(ratio(float64(wr[1].peerInvalidations-wr[0].peerInvalidations), nd)))
	m.put("cache.evictions", "count", onCache(float64(rd[1].evictions-rd[0].evictions)))
	m.put("cache.bytes_resident", "B", onCache(float64(rd[1].resident)))

	// store: the nodes' WAL counters across the pass.
	m.put("store.wal_appends_per_delta", "count", onCluster(ratio(float64(wr[1].walAppends-wr[0].walAppends), nd)))
	m.put("store.snapshots", "count", onCluster(float64(wr[1].snapshots-wr[0].snapshots)))
	m.put("loadgen.delta_late_ms", "ms", median(durs(tp.late, time.Millisecond)))

	// How much of a request do the spans explain? Client-side decode and
	// verify are named work; while the client waits, only an RPC the
	// serving tier had in flight is. The rest — the serving tier's own
	// time, the loopback, the scheduler — has no span yet.
	named := func(name string) bool {
		return name == "client.decode" || name == "client.verify" ||
			strings.HasPrefix(name, "cluster.rpc") || strings.HasPrefix(name, "cache.rpc")
	}
	reqD, reqSelf := rec.selfTimes("client.request", named)
	var cover, unattributed []float64
	for i := range reqD {
		cover = append(cover, 1-reqSelf[i]/reqD[i])
		unattributed = append(unattributed, reqSelf[i]/1e6)
	}
	m.put("trace.coverage_ratio", "ratio", median(cover))
	m.put("trace.unattributed_ms", "ms", median(unattributed))

	diag.put("trace.queries", "count", nq)
	diag.put("trace.deltas", "count", nd)
	diag.put("trace.query_p50_ms", "ms", ratio(lat/1e3, nq))
	diag.put("trace.delta_commit_p50_ms", "ms", median(durs(tp.commit, time.Millisecond)))
	diag.put("cluster.rpc_edges_per_query", "count", onCluster(ratio(float64(edges.N), nq)))
}

// inprocPass drains the serving entry point in-process — no user-facing
// HTTP, no client — for a few of the script's ranges: what the tier
// itself costs per row, and, on a cluster, how much of that the
// coordinator spends outside its node RPCs.
func (t *topology) inprocPass(m *metrics, in *inputs, rec *recorder) error {
	if t.coord == nil {
		m.put("cluster.inproc_stream_us_per_row", "us", nan)
		m.put("cluster.coord_self_ms", "ms", nan)
		return nil
	}
	const n = 32
	var rows float64
	var total time.Duration
	rec.on.Store(true)
	defer rec.on.Store(false)
	for i := 0; i < n; i++ {
		r := in.seq[i%len(in.seq)]
		reqID := rec.begin()
		t0 := time.Now()
		root := rec.reserve(reqID, "cluster.inproc_stream", 0, t0)
		st, err := t.coord.QueryStream(roleName, r.query(t.schema.Name), t.cfg.ChunkRows)
		if err != nil {
			return err
		}
		got, err := drainStream(st)
		if c, ok := st.(io.Closer); ok {
			c.Close()
		}
		end := time.Now()
		rec.finish(root, end)
		if err != nil {
			return err
		}
		rows += got
		total += end.Sub(t0)
		t.settleFills()
	}
	_, self := rec.selfTimes("cluster.inproc_stream", func(name string) bool {
		return strings.HasPrefix(name, "cluster.rpc") || strings.HasPrefix(name, "cache.rpc")
	})
	for i := range self {
		self[i] /= 1e6
	}
	m.put("cluster.inproc_stream_us_per_row", "us", ratio(us(total), rows))
	m.put("cluster.coord_self_ms", "ms", median(self))
	return nil
}
