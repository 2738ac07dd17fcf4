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
	case f.Invalidate != nil:
		rp.Dropped = s.store.Invalidate(f.Invalidate.Relation, f.Invalidate.Shard, f.Invalidate.Keep, f.Invalidate.Key)
	case f.Stats:
		st := s.store.Stats()
		rp.Stats = &st
	default:
		err = errors.New("cache: frame carries no operation")
	}
	return rp, err
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.store.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	role := [][2]string{{"role", "cache"}}
	one := func(v uint64) []obs.CounterSeries {
		return []obs.CounterSeries{{Labels: role, Value: float64(v)}}
	}
	obs.WriteCounterFamily(w, "vcqr_cache_hits_total", "Cache peer entry hits.", one(st.Hits))
	obs.WriteCounterFamily(w, "vcqr_cache_misses_total", "Cache peer entry misses.", one(st.Misses))
	obs.WriteCounterFamily(w, "vcqr_cache_puts_total", "Cache peer entry stores.", one(st.Puts))
	obs.WriteCounterFamily(w, "vcqr_cache_evictions_total", "Entries evicted by the byte-budget LRU.", one(st.Evictions))
	obs.WriteCounterFamily(w, "vcqr_cache_invalidations_total", "Entries dropped by epoch-scoped invalidation.", one(st.Invalidations))
	obs.WriteGaugeFamily(w, "vcqr_cache_entries", "Entries resident.", []obs.CounterSeries{{Labels: role, Value: float64(st.Entries)}})
	obs.WriteGaugeFamily(w, "vcqr_cache_bytes", "Bytes resident (payload plus bookkeeping).", []obs.CounterSeries{{Labels: role, Value: float64(st.Bytes)}})
	obs.WriteGaugeFamily(w, "vcqr_cache_budget_bytes", "Configured byte budget.", []obs.CounterSeries{{Labels: role, Value: float64(st.Budget)}})
}
