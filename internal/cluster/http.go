package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"time"

	"vcqr/internal/cache"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/obs"
	"vcqr/internal/wire"
)

// Handler returns the coordinator's HTTP API. The user-facing endpoints
// (/stream, /delta, /healthz, /statsz) speak exactly the wire
// protocol a single-process vcserve speaks, so vcquery and owner tooling
// work against a coordinator unchanged; /admin adds the control plane an
// operator drives:
//
//	POST /stream           wire.StreamRequest frame -> chunk frames
//	POST /delta            delta.Delta frame        -> wire.DeltaResponse frame
//	GET  /healthz          "ok"
//	GET  /statsz           JSON cluster.Stats
//	GET  /metrics          Prometheus text: coordinator counters and stage
//	                       histograms, per-node scraped histograms, and the
//	                       merged cluster-wide aggregates
//	GET  /metrics.json     obs.Export (coordinator's own registry)
//	GET  /debug/...        expvar, pprof, slow-query log
//	GET  /admin/routing    JSON routing table
//	POST /admin/rebalance  ?shard=N&to=URL        -> JSON RebalanceReport
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	wire.StreamEP.Mount(mux, c.handleStream)
	wire.DeltaRPC.Mount(mux, func(d delta.Delta) (wire.DeltaResponse, error) {
		epoch, err := c.ApplyDelta(d)
		return wire.DeltaResponse{Epoch: epoch}, err
	}, nil)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.Stats())
	})
	mux.HandleFunc("/metrics", c.handleMetrics)
	mux.HandleFunc("/metrics.json", c.handleMetricsJSON)
	obs.RegisterDebug(mux, c.obs.Slow)
	mux.HandleFunc("/admin/routing", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			RoutingEpoch uint64
			Routing      []string
			Replicas     int
			ReplicaSets  [][]string
			Nodes        []NodeStat
		}{c.RoutingEpoch(), c.Routing(), c.replicas, c.ReplicaSets(), c.NodeStats()})
	})
	mux.HandleFunc("/admin/replica", wire.PostOnly(func(w http.ResponseWriter, r *http.Request) {
		shard, err := strconv.Atoi(r.FormValue("shard"))
		if err != nil {
			http.Error(w, "shard must be an integer", http.StatusBadRequest)
			return
		}
		add, drop := r.FormValue("add"), r.FormValue("drop")
		switch {
		case add != "" && drop == "":
			err = c.AddReplica(shard, add)
		case drop != "" && add == "":
			err = c.DropReplica(shard, drop)
		default:
			http.Error(w, "exactly one of add= or drop= must name a node URL", http.StatusBadRequest)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Shard       int
			ReplicaSets [][]string
		}{shard, c.ReplicaSets()})
	}))
	mux.HandleFunc("/admin/reinstate", wire.PostOnly(func(w http.ResponseWriter, r *http.Request) {
		node := r.FormValue("node")
		if node == "" {
			http.Error(w, "node must name a node URL", http.StatusBadRequest)
			return
		}
		if !c.Reinstate(node) {
			http.Error(w, "node unknown or not quarantined", http.StatusConflict)
			return
		}
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("/admin/rebalance", wire.PostOnly(func(w http.ResponseWriter, r *http.Request) {
		shard, err := strconv.Atoi(r.FormValue("shard"))
		if err != nil {
			http.Error(w, "shard must be an integer", http.StatusBadRequest)
			return
		}
		to := r.FormValue("to")
		if to == "" {
			http.Error(w, "to must name a node URL", http.StatusBadRequest)
			return
		}
		rep, err := c.Rebalance(shard, to)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	}))
	return mux
}

// handleStream serves one merged cross-node stream, flushing per frame —
// the same contract as the single-process /stream endpoint, over the
// same verifiers.
func (c *Coordinator) handleStream(w http.ResponseWriter, req wire.StreamRequest) {
	// The span's trace ID (client-supplied or minted here) rides every
	// shard sub-request, so one ID stitches coordinator and nodes.
	sp := obs.StartSpan(req.Trace)
	detail := fmt.Sprintf("role=%s relation=%s", req.Role, req.Query.Relation)
	// Plan first: a refusal reads the same with or without a cache tier,
	// and the cache key is derived from the very cover the pin will use.
	eff, sub, err := c.plan(req.Role, req.Query)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// With a cache tier configured, the merged stream may be served
	// straight from cached chunk-frame bytes — no pin, no merge, no
	// encode. The bytes are a verbatim tee of a previous run's output
	// under the same covering-shard epochs, so they are byte-identical to
	// what the origin path would emit and the client's unmodified
	// verifier is the final check on them.
	var fill *cache.Fill
	if c.cache != nil {
		tGet := time.Now()
		raw, f := c.cache.Lookup(c.cacheStreamKey(req.Role, req.Query, sub, req.ChunkRows))
		sp.Add(obs.StageCacheGet, time.Since(tGet))
		if raw != nil {
			c.serveCachedStream(w, raw, req.Timing, sp, detail+" cache=hit")
			return
		}
		fill = f
		detail += " cache=miss"
	}
	// WriteStream encodes each chunk before pulling the next (and the
	// cache fill tees the encoded bytes), so the node feeds recycle.
	st, err := c.mergeStream(req.Role, req.Query, eff, sub, engine.StreamOpts{ChunkRows: req.ChunkRows, ReuseChunks: true}, sp)
	if err != nil {
		if fill != nil {
			fill.Abort()
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fw := flushWriter{w}
	var sink io.Writer = fw
	if fill != nil {
		sink = teeFlushWriter{fw: fw, fill: fill}
	}
	werr := wire.WriteStream(sink, st)
	if fill != nil {
		if werr == nil {
			tFill := time.Now()
			fill.Commit()
			sp.Add(obs.StageCacheFill, time.Since(tFill))
		} else {
			// An errored stream wrote an in-band error chunk (or died on a
			// disconnect); neither is a cacheable entry.
			fill.Abort()
		}
	}
	if werr != nil {
		c.errors.Add(1)
	}
	total := sp.Elapsed()
	c.obs.Observe(obs.StageFanoutMerge, total)
	sp.Add(obs.StageStreamTotal, total)
	if werr == nil && req.Timing {
		// Advisory trailer after the footer, only on request — same
		// contract as the single-process server, with the per-node
		// breakdowns (collected at each feed's foot) included. Written
		// outside the tee: the trailer is per-request advisory data and
		// must never enter a cached entry.
		tc := &engine.Chunk{Type: engine.ChunkTiming, Trace: sp.Trace, Timing: sp.Stages()}
		if err := wire.WriteChunkFrame(fw, tc); err == nil {
			fw.Flush()
		}
	}
	c.obs.Slow.Finish(sp, "stream", detail)
}

// serveCachedStream writes a cached merged stream verbatim, then the
// freshly built timing trailer if the request asked for one (the trailer
// is never cached — it describes this request, not the fill).
func (c *Coordinator) serveCachedStream(w http.ResponseWriter, raw []byte, timing bool, sp *obs.Span, detail string) {
	fw := flushWriter{w}
	if _, err := fw.Write(raw); err != nil {
		c.errors.Add(1)
		c.obs.Slow.Finish(sp, "stream", detail)
		return
	}
	fw.Flush()
	sp.Add(obs.StageStreamTotal, sp.Elapsed())
	if timing {
		tc := &engine.Chunk{Type: engine.ChunkTiming, Trace: sp.Trace, Timing: sp.Stages()}
		if err := wire.WriteChunkFrame(fw, tc); err == nil {
			fw.Flush()
		}
	}
	c.obs.Slow.Finish(sp, "stream", detail)
}

// teeFlushWriter mirrors every stream byte into an edge-cache fill while
// preserving the per-frame flush behavior toward the client.
type teeFlushWriter struct {
	fw   flushWriter
	fill *cache.Fill
}

func (t teeFlushWriter) Write(p []byte) (int, error) {
	n, err := t.fw.Write(p)
	if err == nil && n == len(p) {
		t.fill.Write(p)
	}
	return n, err
}

func (t teeFlushWriter) Flush() { t.fw.Flush() }

// counters is the coordinator's serving-counter table: every rendering
// of a counter outside the Stats struct itself — /metrics, /metrics.json,
// the vcqr_coordinator expvar — ranges over it.
var counters = []obs.Counter[Stats]{
	{Key: "queries", Help: "Queries served.", Field: func(st *Stats) *uint64 { return &st.Queries }},
	{Key: "streams", Help: "Streamed queries served.", Field: func(st *Stats) *uint64 { return &st.Streams }},
	{Key: "fanouts", Help: "Queries decomposed over more than one shard.", Field: func(st *Stats) *uint64 { return &st.Fanouts }},
	{Key: "errors", Help: "Serving errors.", Field: func(st *Stats) *uint64 { return &st.Errors }},
	{Key: "handoff_retries", Help: "Cross-node epoch-set re-pins.", Field: func(st *Stats) *uint64 { return &st.HandoffRetries }},
	{Key: "routing_retries", Help: "Pins retried after stale-routing refusals.", Field: func(st *Stats) *uint64 { return &st.RoutingRetries }},
	{Key: "deltas_applied", Help: "Distributed deltas committed.", Field: func(st *Stats) *uint64 { return &st.DeltasApplied }},
	{Key: "migrations", Help: "Shard migrations completed.", Field: func(st *Stats) *uint64 { return &st.Migrations }},
	{Key: "failovers", Help: "Sub-streams re-pinned to a sibling replica.", Field: func(st *Stats) *uint64 { return &st.Failovers }},
	{Key: "demotions", Help: "Nodes demoted on lease expiry.", Field: func(st *Stats) *uint64 { return &st.Demotions }},
	{Key: "promotions", Help: "Demoted nodes promoted back on lease renewal.", Field: func(st *Stats) *uint64 { return &st.Promotions }},
	{Key: "quarantines", Help: "Nodes quarantined on Byzantine evidence.", Field: func(st *Stats) *uint64 { return &st.Quarantines }},
	{Key: "lease_renewals", Help: "Acknowledged lease heartbeats.", Field: func(st *Stats) *uint64 { return &st.LeaseRenewals }},
}

// cacheCounters are the edge-cache client's counters, rendered when a
// cache tier is configured.
var cacheCounters = []obs.Counter[cache.ClientStats]{
	{Key: "cache_hits", Help: "Validated edge-cache hits.", Field: func(cs *cache.ClientStats) *uint64 { return &cs.Hits }},
	{Key: "cache_near_hits", Help: "Edge-cache hits answered from the coordinator's near store (a subset of hits).", Field: func(cs *cache.ClientStats) *uint64 { return &cs.NearHits }},
	{Key: "cache_misses", Help: "Edge-cache misses (fall-throughs included).", Field: func(cs *cache.ClientStats) *uint64 { return &cs.Misses }},
	{Key: "cache_collapsed", Help: "Lookups that waited on another lookup's peer GET or fill.", Field: func(cs *cache.ClientStats) *uint64 { return &cs.Collapsed }},
	{Key: "cache_fills", Help: "Entries pushed to cache peers.", Field: func(cs *cache.ClientStats) *uint64 { return &cs.Fills }},
	{Key: "cache_fill_drops", Help: "Fills discarded (aborted, oversized, empty).", PromOnly: true, Field: func(cs *cache.ClientStats) *uint64 { return &cs.FillDrops }},
	{Key: "cache_fallthroughs", Help: "Cache entries rejected by digest or structural checks.", Field: func(cs *cache.ClientStats) *uint64 { return &cs.Fallthroughs }},
	{Key: "cache_invalidations", Help: "Epoch-scoped group sweeps queued.", Field: func(cs *cache.ClientStats) *uint64 { return &cs.Invalidations }},
	{Key: "cache_peer_errors", Help: "Cache-protocol I/O failures.", PromOnly: true, Field: func(cs *cache.ClientStats) *uint64 { return &cs.PeerErrors }},
	{Key: "cache_admission_denied", Help: "Fills skipped by the admission gate.", PromOnly: true, Field: func(cs *cache.ClientStats) *uint64 { return &cs.AdmissionsDenied }},
}

// handleMetrics serves the cluster-wide Prometheus exposition. Three
// histogram families share the bucket geometry that makes node snapshots
// mergeable (internal/obs):
//
//	vcqr_stage_seconds{role="coordinator",stage}  this process
//	vcqr_node_stage_seconds{node,stage}           each scraped node, as-is
//	vcqr_cluster_stage_seconds{stage}             coordinator + all nodes,
//	                                              merged per stage
//
// A node that fails to scrape is skipped and counted in
// vcqr_node_scrape_errors — a partial cluster view beats a failed scrape.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := c.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	role := [][2]string{{"role", "coordinator"}}
	obs.WriteCounters(w, counters, &st, role)
	obs.WriteGaugeFamily(w, "vcqr_routing_epoch", "Routing table version.",
		[]obs.CounterSeries{{Labels: role, Value: float64(st.RoutingEpoch)}})
	if st.Cache != nil {
		obs.WriteCounters(w, cacheCounters, st.Cache, role)
		// Per-peer resident state, scraped live; a down peer is skipped
		// (its keys fall through to origin, which is the design).
		peerStats := c.cache.PeerStats()
		var ev, by, en []obs.CounterSeries
		for _, url := range slices.Sorted(maps.Keys(peerStats)) {
			ps := peerStats[url]
			if ps == nil {
				continue
			}
			l := [][2]string{{"peer", url}}
			ev = append(ev, obs.CounterSeries{Labels: l, Value: float64(ps.Evictions)})
			by = append(by, obs.CounterSeries{Labels: l, Value: float64(ps.Bytes)})
			en = append(en, obs.CounterSeries{Labels: l, Value: float64(ps.Entries)})
		}
		obs.WriteCounterFamily(w, "vcqr_cache_evictions_total", "Entries evicted by each peer's byte-budget LRU.", ev)
		obs.WriteGaugeFamily(w, "vcqr_cache_bytes", "Bytes resident on each cache peer.", by)
		obs.WriteGaugeFamily(w, "vcqr_cache_entries", "Entries resident on each cache peer.", en)
	}
	own := c.obs.Snapshot()
	obs.WriteHistogramFamily(w, "vcqr_stage_seconds",
		"Per-stage serving latency (seconds).",
		obs.HistFamily(own, "role", "coordinator"))

	// Scrape every node's /metrics.json and render both the per-node
	// series and the merged cluster aggregate.
	var nodeSeries []obs.HistSeries
	sets := []map[string]obs.Snapshot{own}
	var scrapeErrs uint64
	for _, url := range c.nodes {
		cl, err := c.client(url)
		if err != nil {
			scrapeErrs++
			continue
		}
		e, err := cl.ObsExport()
		if err != nil {
			scrapeErrs++
			continue
		}
		nodeSeries = append(nodeSeries, obs.HistFamily(e.Hists, "node", url)...)
		sets = append(sets, e.Hists)
	}
	obs.WriteGaugeFamily(w, "vcqr_node_scrape_errors", "Nodes that failed the last /metrics scrape.",
		[]obs.CounterSeries{{Value: float64(scrapeErrs)}})
	obs.WriteHistogramFamily(w, "vcqr_node_stage_seconds",
		"Per-stage latency as reported by each shard node (seconds).", nodeSeries)
	obs.WriteHistogramFamily(w, "vcqr_cluster_stage_seconds",
		"Per-stage latency merged across the coordinator and every node (seconds).",
		obs.HistFamily(obs.MergeAll(sets...)))
}

// handleMetricsJSON serves the coordinator's own registry as an
// obs.Export (nodes serve their own; merging is the scraper's job).
func (c *Coordinator) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	st := c.Stats()
	e := obs.Export{
		Role:     "coordinator",
		BoundsNS: obs.BucketBounds(),
		Hists:    c.obs.Snapshot(),
		Counters: map[string]uint64{},
	}
	obs.ExportCounters(e.Counters, counters, &st)
	if st.Cache != nil {
		obs.ExportCounters(e.Counters, cacheCounters, st.Cache)
	}
	obs.WriteExport(w, e)
}

// flushWriter adapts the response writer so wire.WriteStream flushes
// after every frame.
type flushWriter struct{ w http.ResponseWriter }

func (fw flushWriter) Write(p []byte) (int, error) { return fw.w.Write(p) }
func (fw flushWriter) Flush() {
	if f, ok := fw.w.(http.Flusher); ok {
		f.Flush()
	}
}
