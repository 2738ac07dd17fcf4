package server

import (
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/obs"
	"vcqr/internal/wire"
)

// Handler returns the server's HTTP API:
//
//	POST /query       gob wire.Request       -> gob wire.Response
//	POST /batch       gob wire.BatchRequest  -> gob wire.BatchResponse
//	POST /stream      gob wire.StreamRequest -> length-prefixed chunk frames
//	                  (chunked transfer encoding, flushed per chunk)
//	POST /delta       gob delta.Delta        -> gob wire.DeltaResponse
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
	mux.Handle("/query", wire.CapBody(wire.MaxQueryBody, wire.QueryHandler(s.Query)))
	mux.Handle("/batch", wire.CapBody(wire.MaxBatchBody, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req wire.BatchRequest
		if err := gob.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results, errs := s.QueryBatch(req.Role, req.Queries)
		resp := wire.BatchResponse{Items: make([]wire.Response, len(results))}
		for i := range results {
			if errs[i] != nil {
				resp.Items[i].Err = errs[i].Error()
			} else {
				resp.Items[i].Result = results[i]
			}
		}
		writeGob(w, resp)
	})))
	mux.Handle("/stream", wire.CapBody(wire.MaxQueryBody, http.HandlerFunc(s.handleStream)))
	mux.Handle("/delta", wire.CapBody(wire.MaxDeltaBody, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var resp wire.DeltaResponse
		blob, err := io.ReadAll(r.Body)
		if err == nil {
			var d delta.Delta
			d, err = wire.DecodeDelta(blob)
			if err == nil {
				var epoch uint64
				epoch, err = s.ApplyDelta(d)
				resp.Epoch = epoch
			}
		}
		if err != nil {
			resp.Err = err.Error()
		}
		writeGob(w, resp)
	})))
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

// obsRole reports the Export role: a server that hosts shard slices for
// a coordinator is a node, otherwise a standalone server.
func (s *Server) obsRole() string {
	if len(s.nodeStats()) > 0 {
		return "node"
	}
	return "server"
}

// obsCounters flattens the Stats counters for /metrics and /metrics.json.
func (s *Server) obsCounters(st Stats) map[string]uint64 {
	return map[string]uint64{
		"queries":        st.Queries,
		"batches":        st.Batches,
		"deltas_applied": st.DeltasApplied,
		"errors":         st.Errors,
		"streams":        st.Streams,
		"stream_chunks":  st.StreamChunks,
		"stream_bytes":   st.StreamBytes,
		"shard_streams":  st.ShardStreams,
		"cache_hits":     st.Cache.Hits,
		"cache_misses":   st.Cache.Misses,
	}
}

// handleMetrics serves the Prometheus text exposition: the flat serving
// counters plus one vcqr_stage_seconds histogram series per recorded
// stage. Everything here is advisory operational data — the verified
// material never depends on it.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	role := s.obsRole()
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"vcqr_queries_total", "Point queries served.", st.Queries},
		{"vcqr_batches_total", "Batch requests served.", st.Batches},
		{"vcqr_streams_total", "Streamed queries served.", st.Streams},
		{"vcqr_stream_chunks_total", "Stream chunk frames shipped.", st.StreamChunks},
		{"vcqr_stream_bytes_total", "Stream frame bytes shipped.", st.StreamBytes},
		{"vcqr_deltas_applied_total", "Deltas applied.", st.DeltasApplied},
		{"vcqr_errors_total", "Serving errors.", st.Errors},
		{"vcqr_shard_streams_total", "Fan-out sub-streams served (node mode).", st.ShardStreams},
		{"vcqr_cache_hits_total", "VO cache hits.", st.Cache.Hits},
		{"vcqr_cache_misses_total", "VO cache misses.", st.Cache.Misses},
	} {
		obs.WriteCounterFamily(w, c.name, c.help,
			[]obs.CounterSeries{{Labels: [][2]string{{"role", role}}, Value: float64(c.v)}})
	}
	obs.WriteGaugeFamily(w, "vcqr_epoch", "Current publication epoch.",
		[]obs.CounterSeries{{Labels: [][2]string{{"role", role}}, Value: float64(st.Epoch)}})
	if st.Store != nil {
		for _, c := range []struct {
			name, help string
			v          uint64
		}{
			{"vcqr_wal_appends_total", "Durable WAL records appended (node store).", st.Store.WALAppends},
			{"vcqr_snapshots_total", "Compacting store snapshots written.", st.Store.Snapshots},
			{"vcqr_cold_starts_total", "Recoveries from the durable store.", st.Store.ColdStarts},
		} {
			obs.WriteCounterFamily(w, c.name, c.help,
				[]obs.CounterSeries{{Labels: [][2]string{{"role", role}}, Value: float64(c.v)}})
		}
		// Age of the newest snapshot; the replay depth a crash right now
		// would pay grows with it. Zero before the first snapshot of
		// this process (the WAL alone is still fully durable).
		var age float64
		if st.Store.LastSnapshotUnix > 0 {
			age = time.Since(time.Unix(st.Store.LastSnapshotUnix, 0)).Seconds()
		}
		obs.WriteGaugeFamily(w, "vcqr_snapshot_age_seconds",
			"Seconds since the last compacting store snapshot.",
			[]obs.CounterSeries{{Labels: [][2]string{{"role", role}}, Value: age}})
	}
	obs.WriteHistogramFamily(w, "vcqr_stage_seconds",
		"Per-stage serving latency (seconds).",
		obs.HistFamily(s.obs.Snapshot(), "role", role))
}

// handleMetricsJSON serves the machine-readable obs.Export a coordinator
// scrapes and merges into cluster aggregates.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	obs.WriteExport(w, obs.Export{
		Role:     s.obsRole(),
		BoundsNS: obs.BucketBounds(),
		Hists:    s.obs.Snapshot(),
		Counters: s.obsCounters(st),
	})
}

// handleStream serves one query as length-prefixed chunk frames over
// chunked transfer encoding. The epoch snapshot is pinned before the
// first frame and held by the stream until the drain finishes, so a
// delta cutover mid-response never mixes epochs. Pre-stream failures
// (bad request, unknown relation, rewrite errors) use the HTTP status;
// once the first frame is out, failures travel in-band as a ChunkError
// frame. Every frame is flushed individually and accounted in /statsz.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req wire.StreamRequest
	if err := gob.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
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
	w.Header().Set("Content-Type", "application/octet-stream")
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
		// the drain is gob encode + flush — the wire_encode share.
		s.hWire.Observe(encode)
		if s.partFor(req.Query.Relation) != nil {
			// A partitioned relation's stream is a merged one; observed
			// as the coordinator observes its own.
			s.obs.Observe(obs.StageFanoutMerge, total)
		}
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
// accounting per chunk. WriteStream writes a 4-byte prefix then a body
// per frame; counting every Write and flushing on demand keeps the
// accounting exact without re-buffering.
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

func writeGob(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := gob.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
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

// Kill abruptly closes the listener and every active connection — the
// SIGKILL-equivalent used by fault drills and the replication
// benchmark. In-flight requests see a connection reset, not a drain.
// Shares Shutdown's once: whichever runs first decides how connections
// die, and later calls of either return that first result.
func (h *HTTPServer) Kill() error {
	h.shutdownOnce.Do(func() {
		err := h.hs.Close()
		<-h.done
		if err == nil {
			err = h.serveErr
		}
		h.srv.Close()
		h.shutdownErr = err
	})
	return h.shutdownErr
}
