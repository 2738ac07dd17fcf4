package cache

import (
	"encoding/json"
	"errors"
	"net/http"

	"vcqr/internal/obs"
	"vcqr/internal/wire"
)

// Server is a standalone cache peer: one Store behind the wire cache
// protocol. It has no keys, no signatures and no relation state — it can
// be run by anyone, anywhere, and the serving tier stays exactly as
// trustworthy as it was without it.
type Server struct {
	store *Store
}

// NewServer creates a cache peer with a byte budget (DefaultBudget when
// budget <= 0).
func NewServer(budget int64) *Server {
	return &Server{store: NewStore(budget)}
}

// Store exposes the underlying entry table (tests, stats).
func (s *Server) Store() *Store { return s.store }

// Handler returns the peer's HTTP surface:
//
//	POST /cache    one wire.CacheFrame in, one wire.CacheReply out
//	GET  /healthz  liveness
//	GET  /statsz   counter snapshot as JSON
//	GET  /metrics  counter snapshot as Prometheus text
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	wire.CacheRPC.Mount(mux, s.serveCache, nil)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.store.Stats())
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// serveCache answers one cache-protocol operation from the store.
func (s *Server) serveCache(f wire.CacheFrame) (rp wire.CacheReply, err error) {
	switch {
	case f.Get != nil:
		rp.Bytes, rp.Sum, rp.Hit = s.store.Get(f.Get.Key)
	case f.Put != nil:
		s.store.Put(f.Put.Key, f.Put.Relation, f.Put.Shard, f.Put.Epoch, f.Put.Sum, f.Put.Bytes)
	case f.Sweep != nil:
		for _, g := range f.Sweep.Groups {
			rp.Dropped += s.store.Invalidate(g.Relation, g.Shard, g.Keep, "")
		}
		for _, k := range f.Sweep.Keys {
			rp.Dropped += s.store.Invalidate("", 0, 0, k)
		}
	case f.Stats:
		st := s.store.Stats()
		rp.Stats = &st
	default:
		err = errors.New("cache: frame carries no operation")
	}
	return rp, err
}

// peerCounters is the peer's counter table: /metrics ranges over it.
var peerCounters = []obs.Counter[wire.CacheStats]{
	{Key: "cache_hits", Help: "Cache peer entry hits.", Field: func(st *wire.CacheStats) *uint64 { return &st.Hits }},
	{Key: "cache_misses", Help: "Cache peer entry misses.", Field: func(st *wire.CacheStats) *uint64 { return &st.Misses }},
	{Key: "cache_puts", Help: "Cache peer entry stores.", Field: func(st *wire.CacheStats) *uint64 { return &st.Puts }},
	{Key: "cache_evictions", Help: "Entries evicted by the byte-budget LRU.", Field: func(st *wire.CacheStats) *uint64 { return &st.Evictions }},
	{Key: "cache_invalidations", Help: "Entries dropped by epoch-scoped invalidation.", Field: func(st *wire.CacheStats) *uint64 { return &st.Invalidations }},
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.store.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	role := [][2]string{{"role", "cache"}}
	obs.WriteCounters(w, peerCounters, &st, role)
	gauge := func(name, help string, v int64) {
		obs.WriteGaugeFamily(w, name, help, []obs.CounterSeries{{Labels: role, Value: float64(v)}})
	}
	gauge("vcqr_cache_entries", "Entries resident.", int64(st.Entries))
	gauge("vcqr_cache_bytes", "Bytes resident (payload plus bookkeeping).", st.Bytes)
	gauge("vcqr_cache_budget_bytes", "Configured byte budget.", st.Budget)
}
