package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/obs"
	"vcqr/internal/store"
	"vcqr/internal/wire"
)

// Handler returns the server's HTTP API:
//
//	POST /stream      wire.StreamRequest frame -> length-prefixed chunk frames
//	                  (chunked transfer encoding, flushed per chunk)
//	POST /delta       delta.Delta frame        -> wire.DeltaResponse frame
//	GET  /healthz      "ok"
//	GET  /statsz       JSON Stats snapshot
//	GET  /metrics      Prometheus text exposition (counters + stage histograms)
//	GET  /metrics.json obs.Export snapshot (scraped by a cluster coordinator)
//	GET  /debug/...    expvar, pprof, slow-query log (obs.RegisterDebug)
//
// All integrity still comes from the VOs — nothing here is trusted by
// clients, so the transport needs no hardening beyond basic hygiene.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	wire.StreamEP.Mount(mux, s.handleStream)
	wire.DeltaRPC.Mount(mux, func(d delta.Delta) (wire.DeltaResponse, error) {
		epoch, err := s.ApplyDelta(d)
		return wire.DeltaResponse{Epoch: epoch}, err
	}, nil)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.Stats())
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	obs.RegisterDebug(mux, s.obs.Slow)
	// Node-mode endpoints (shard hosting behind a cluster coordinator);
	// inert until a coordinator installs a slice.
	s.nodeHandlers(mux)
	return mux
}

// obsRole reports the Export role from what a coordinator did: a server
// that accepted an install, recorded a lease, or runs on a durable node
// store is a node; anything else — AddRelation's and AddPartition's
// slices included — is a standalone server.
func (s *Server) obsRole() string {
	if s.installs.Load() > 0 || s.leaseStat() != nil || s.nstore != nil {
		return "node"
	}
	return "server"
}

// counters is the process's serving-counter table: every rendering of a
// counter outside the Stats struct itself — /metrics, /metrics.json, the
// vcqr_server expvar — ranges over it.
var counters = []obs.Counter[Stats]{
	{Key: "queries", Help: "Queries served.", Field: func(st *Stats) *uint64 { return &st.Queries }},
	{Key: "streams", Help: "Streamed queries served.", Field: func(st *Stats) *uint64 { return &st.Streams }},
	{Key: "stream_chunks", Help: "Stream chunk frames shipped.", Field: func(st *Stats) *uint64 { return &st.StreamChunks }},
	{Key: "stream_bytes", Help: "Stream frame bytes shipped.", Field: func(st *Stats) *uint64 { return &st.StreamBytes }},
	{Key: "deltas_applied", Help: "Deltas applied.", Field: func(st *Stats) *uint64 { return &st.DeltasApplied }},
	{Key: "errors", Help: "Serving errors.", Field: func(st *Stats) *uint64 { return &st.Errors }},
	{Key: "shard_streams", Help: "Fan-out sub-streams served (node mode).", Field: func(st *Stats) *uint64 { return &st.ShardStreams }},
}

// storeCounters are the durable node store's counters, exposed on
// /metrics only.
var storeCounters = []obs.Counter[store.NodeStats]{
	{Key: "wal_appends", Help: "Durable WAL records appended (node store).", Field: func(st *store.NodeStats) *uint64 { return &st.WALAppends }},
	{Key: "snapshots", Help: "Store compactions (atomic WAL rewrites) written.", Field: func(st *store.NodeStats) *uint64 { return &st.Snapshots }},
	{Key: "cold_starts", Help: "Recoveries from the durable store.", Field: func(st *store.NodeStats) *uint64 { return &st.ColdStarts }},
}

// handleMetrics serves the Prometheus text exposition: the flat serving
// counters plus one vcqr_stage_seconds histogram series per recorded
// stage. Everything here is advisory operational data — the verified
// material never depends on it.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	roleName := s.obsRole()
	role := [][2]string{{"role", roleName}}
	obs.WriteCounters(w, counters, &st, role)
	obs.WriteGaugeFamily(w, "vcqr_epoch", "Current publication epoch.",
		[]obs.CounterSeries{{Labels: role, Value: float64(st.Epoch)}})
	if st.Store != nil {
		obs.WriteCounters(w, storeCounters, st.Store, role)
		// Age of the newest compaction; the replay depth a crash right
		// now would pay grows with it. Zero before the first compaction
		// of this process (the WAL alone is still fully durable).
		var age float64
		if st.Store.LastSnapshotUnix > 0 {
			age = time.Since(time.Unix(st.Store.LastSnapshotUnix, 0)).Seconds()
		}
		obs.WriteGaugeFamily(w, "vcqr_snapshot_age_seconds",
			"Seconds since the last store compaction (atomic WAL rewrite).",
			[]obs.CounterSeries{{Labels: role, Value: age}})
	}
	obs.WriteHistogramFamily(w, "vcqr_stage_seconds",
		"Per-stage serving latency (seconds).",
		obs.HistFamily(s.obs.Snapshot(), "role", roleName))
}

// handleMetricsJSON serves the machine-readable obs.Export a coordinator
// scrapes and merges into cluster aggregates.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	e := obs.Export{
		Role:     s.obsRole(),
		BoundsNS: obs.BucketBounds(),
		Hists:    s.obs.Snapshot(),
		Counters: map[string]uint64{},
	}
	obs.ExportCounters(e.Counters, counters, &st)
	obs.WriteExport(w, e)
}

// handleStream serves one query as length-prefixed chunk frames over
// chunked transfer encoding. The epoch snapshot is pinned before the
// first frame and held by the stream until the drain finishes, so a
// delta cutover mid-response never mixes epochs. Pre-stream failures
// (bad request, unknown relation, rewrite errors) use the HTTP status;
// once the first frame is out, failures travel in-band as a ChunkError
// frame. Every frame is flushed individually and accounted in /statsz.
func (s *Server) handleStream(w http.ResponseWriter, req wire.StreamRequest) {
	// Span covers the whole request; the trace ID is the client's when it
	// sent one (a coordinator fan-out does), freshly minted otherwise.
	sp := obs.StartSpan(req.Trace)
	// wire.WriteStream serializes each chunk before pulling the next, so
	// the stream can recycle its chunk buffers — the allocation-bounded
	// serving loop.
	st, err := s.QueryStreamOpts(req.Role, req.Query,
		engine.StreamOpts{ChunkRows: req.ChunkRows, ReuseChunks: true})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cw := &chunkCountingWriter{w: w, srv: s}
	werr := wire.WriteStream(cw, st)
	if werr != nil {
		// Mid-stream failure: WriteStream already shipped a ChunkError
		// frame when it could; the client's verifier rejects regardless.
		s.errors.Add(1)
	}
	if ts, ok := st.(*timedStream); ok {
		total, assemble, encode := ts.breakdown()
		// Assembly is timed inside the stream (per-Next); the remainder of
		// the drain is frame encode + flush — the wire_encode share.
		s.hVO.Observe(assemble)
		s.hWire.Observe(encode)
		sp.Add(obs.StageStreamTotal, total)
		sp.Add(obs.StageVOAssemble, assemble)
		sp.Add(obs.StageWireEncode, encode)
	}
	if werr == nil && req.Timing {
		// Advisory timing trailer AFTER the footer, sent only because this
		// client explicitly asked: byte-identity consumers never set
		// req.Timing, and the client transport (wire.QueryStreamWith) strips
		// the frame before the verifier sees it.
		tc := &engine.Chunk{Type: engine.ChunkTiming, Trace: sp.Trace, Timing: sp.Stages()}
		if err := wire.WriteChunkFrame(cw, tc); err == nil {
			cw.Flush()
		}
	}
	s.obs.Slow.Finish(sp, "stream",
		fmt.Sprintf("role=%s relation=%s", req.Role, req.Query.Relation))
}

// chunkCountingWriter forwards frames to the HTTP response, flushing and
// accounting per chunk. WriteStream hands over each frame — prefix and
// payload — in one Write; counting every Write and flushing on demand
// keeps the accounting exact without re-buffering.
type chunkCountingWriter struct {
	w    http.ResponseWriter
	srv  *Server
	pend int
}

func (cw *chunkCountingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.pend += n
	return n, err
}

// Flush is called by WriteStream once per completed frame.
func (cw *chunkCountingWriter) Flush() {
	cw.srv.accountStreamChunk(cw.pend)
	cw.pend = 0
	if f, ok := cw.w.(http.Flusher); ok {
		f.Flush()
	}
}

// HTTPServer is a running listener over a Server, with graceful
// shutdown: Shutdown stops accepting, drains in-flight requests, and
// unregisters the server's stats.
type HTTPServer struct {
	srv  *Server
	hs   *http.Server
	addr net.Addr

	serveErr error // written before done closes
	done     chan struct{}

	shutdownOnce sync.Once
	shutdownErr  error
}

// Serve starts listening on addr (":0" picks a free port) and serves in
// a background goroutine.
func Serve(addr string, s *Server) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen: %w", err)
	}
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	out := &HTTPServer{srv: s, hs: hs, addr: ln.Addr(), done: make(chan struct{})}
	go func() {
		err := hs.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		out.serveErr = err
		close(out.done)
	}()
	return out, nil
}

// Addr returns the bound listen address.
func (h *HTTPServer) Addr() string { return h.addr.String() }

// Done is closed when the serve loop exits — on graceful shutdown or on
// a fatal accept error. Callers supervising the server select on it
// alongside their signal handling; Err reports why it closed.
func (h *HTTPServer) Done() <-chan struct{} { return h.done }

// Err returns the serve loop's terminal error (nil after a clean
// shutdown). Only meaningful once Done is closed.
func (h *HTTPServer) Err() error {
	select {
	case <-h.done:
		return h.serveErr
	default:
		return nil
	}
}

// Shutdown drains in-flight requests until ctx expires, then closes the
// listener and unregisters the server from the stats aggregate. Safe to
// call more than once; later calls return the first call's result.
func (h *HTTPServer) Shutdown(ctx context.Context) error {
	h.shutdownOnce.Do(func() {
		err := h.hs.Shutdown(ctx)
		<-h.done
		if err == nil {
			err = h.serveErr
		}
		h.srv.Close()
		h.shutdownErr = err
	})
	return h.shutdownErr
}
