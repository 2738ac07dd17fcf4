// Package server is the concurrent publisher-serving subsystem of the
// Figure 3 deployment: the layer that turns the single-threaded
// engine.Publisher reproduction into a system that serves many users at
// once while the owner streams updates.
//
// Every relation lives in one registry, the hosting table (node.go): a
// K-way partitioned relation as K shard slices, a plain relation as the
// one slice of a K = 1 spec. Two mechanisms make it safe and fast under
// concurrency:
//
//   - Copy-on-write epochs: each hosted slice is an immutable snapshot.
//     A read pins the slices it covers under the table's lock, then
//     drains them without it, while writers clone, validate and swap.
//     The paper's security argument is what makes the old epoch servable
//     during a cutover: any internally consistent signed relation yields
//     VOs that verify against the owner's key, regardless of when the
//     user reads them.
//
//   - Live delta ingest (ApplyDelta): internal/delta batches are routed
//     to the owning slices and applied to clones with exactly the
//     affected neighbourhood re-validated, then cut over under the same
//     lock. A rejected delta leaves the published epochs untouched.
//
// Every query is answered as a chunk stream (QueryStream) — the one read
// path, the fan-out merger over the covering slices; a caller that wants
// the materialized result collects it. The HTTP front end (http.go)
// exposes the stream, delta-ingest and health/stats endpoints and shuts
// down gracefully.
package server

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/partition"
	"vcqr/internal/sig"
	"vcqr/internal/store"
)

// Config parameterizes a Server.
type Config struct {
	Hasher *hashx.Hasher
	Pub    *sig.PublicKey
	Policy accessctl.Policy
	// Obs is the stage-latency registry (internal/obs). Nil creates a
	// fresh one.
	Obs *obs.Registry
	// SlowThreshold sets the slow-query log's retention threshold: 0
	// keeps the obs default (100ms), negative disables the log.
	SlowThreshold time.Duration
	// Store is the node-mode durable store (internal/store). When set,
	// every install, remove and delta commit is appended to its WAL —
	// and synced — before the node acknowledges it, and RecoverHosted
	// republishes what the store replayed at cold start. Nil keeps the
	// node memory-only (the pre-durability behaviour; tests and the
	// in-process modes).
	Store *store.NodeStore
}

// Server is a goroutine-safe publisher: a hosting table and a stateless
// query executor. All exported methods may be called concurrently.
type Server struct {
	h      *hashx.Hasher
	pub    *sig.PublicKey
	policy accessctl.Policy
	exec   *engine.Publisher

	// nodeRels registers every hosted relation by name (node.go): shard
	// slices installed one at a time by a cluster coordinator, or all at
	// once by AddPartition and AddRelation.
	nodeMu   sync.RWMutex
	nodeRels map[string]*nodeTable
	// epochs counts cutovers across every hosted slice; it stamps each
	// slice's epoch, so any publish or removal anywhere advances it.
	epochs atomic.Uint64
	// stagedTokens mints tokens for two-phase distributed deltas.
	stagedTokens atomic.Uint64
	// nstore is the durable node store (nil = memory-only node);
	// installs counts slice transfers accepted over the wire — a
	// restarted node that recovered from its WAL serves with this still
	// at zero, the no-re-transfer signal store_smoke.sh asserts.
	nstore   *store.NodeStore
	installs atomic.Uint64

	queries, deltasApplied, errors     atomic.Uint64
	streams, streamChunks, streamBytes atomic.Uint64
	shardStreams                       atomic.Uint64
	// subInflight gauges currently-open fan-out sub-streams — the load
	// signal leases report back to the coordinator's replica selection.
	subInflight atomic.Int64
	// lease is the node's view of its most recent coordinator lease
	// (node.go); advisory /statsz state, never consulted when serving.
	lease nodeLease

	// obs is the stage-latency registry; the h* fields are its hot-path
	// histograms, resolved once.
	obs     *obs.Registry
	hVO     *obs.Histogram // vo_assemble
	hChunk  *obs.Histogram // stream_chunk
	hStream *obs.Histogram // stream_total
	hWire   *obs.Histogram // wire_encode
	hDelta  *obs.Histogram // delta_apply
}

// New creates a server. The executor publisher carries no relations of
// its own — every query pins epoch slices from the hosting table and
// runs through engine.FanoutStream.
func New(cfg Config) *Server {
	if cfg.Hasher == nil {
		cfg.Hasher = hashx.New()
	}
	exec := engine.NewPublisher(cfg.Hasher, cfg.Pub, cfg.Policy)
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cfg.SlowThreshold != 0 {
		reg.Slow.SetThreshold(cfg.SlowThreshold)
	}
	exec.Obs = reg
	s := &Server{
		h:        cfg.Hasher,
		pub:      cfg.Pub,
		policy:   cfg.Policy,
		exec:     exec,
		nodeRels: map[string]*nodeTable{},
		nstore:   cfg.Store,
		obs:      reg,
		hVO:      reg.Hist(obs.StageVOAssemble),
		hChunk:   reg.Hist(obs.StageStreamChunk),
		hStream:  reg.Hist(obs.StageStreamTotal),
		hWire:    reg.Hist(obs.StageWireEncode),
		hDelta:   reg.Hist(obs.StageDeltaApply),
	}
	processVar.Add(s)
	return s
}

// Obs exposes the server's stage-latency registry (for the /metrics
// handlers, vcquery's verifier wiring, and tests).
func (s *Server) Obs() *obs.Registry { return s.obs }

// Close unregisters the server from the process-wide expvar aggregate.
func (s *Server) Close() { processVar.Remove(s) }

// AddRelation publishes a relation snapshot (optionally validating every
// signature first, as a publisher receiving an untrusted feed must) as
// the one slice of a K = 1 spec over its whole domain. The caller must
// not retain or mutate sr afterwards: it is the published epoch, crypto
// index included.
func (s *Server) AddRelation(sr *core.SignedRelation, validate bool) error {
	if validate {
		if err := sr.Validate(s.h, s.pub); err != nil {
			return fmt.Errorf("server: ingest validation: %w", err)
		}
	}
	spec := partition.Spec{Relation: sr.Schema.Name, Cuts: []uint64{sr.Params.L, sr.Params.U}}
	return s.hostAll(spec, []*core.SignedRelation{sr})
}

// ApplyDelta ingests an owner update batch live and returns the new
// epoch. In-flight streams finish on the epochs they pinned; a query that
// arrives while the delta stages and publishes waits for the cutover and
// sees the post-delta epoch. Both produce VOs that verify. A batch with
// no operations is refused (delta.ErrEmpty).
func (s *Server) ApplyDelta(d delta.Delta) (uint64, error) {
	sp := obs.StartSpan("")
	defer func() {
		s.hDelta.Observe(sp.Elapsed())
		s.obs.Slow.Finish(sp, "delta", fmt.Sprintf("relation=%s ops=%d", d.Relation, len(d.Ops)))
	}()
	var epoch uint64
	var err error
	if nt := s.served(d.Relation); nt != nil {
		epoch, err = s.applyHostedDelta(nt, d)
	} else {
		err = fmt.Errorf("server: delta for unhosted relation %q", d.Relation)
	}
	if err != nil {
		s.errors.Add(1)
		return 0, err
	}
	s.deltasApplied.Add(1)
	return epoch, nil
}

// QueryStream answers one query as a chunk stream with bounded memory:
// the VO is assembled and shipped ≤chunkRows entries at a time instead
// of being materialized. The relation's epoch snapshot is pinned when
// the stream is created and stays pinned (GC-rooted by the stream) until
// the stream is dropped, so a delta cutover mid-stream never mixes
// epochs — the whole stream verifies against the epoch that answered
// its first chunk.
//
// Chunks from this API are independently retainable (no buffer reuse) —
// in-process consumers may collect them. The HTTP /stream handler uses
// QueryStreamOpts with engine.StreamOpts.ReuseChunks instead, because
// it serializes each chunk before pulling the next.
func (s *Server) QueryStream(role string, q engine.Query, chunkRows int) (engine.ResultStream, error) {
	return s.QueryStreamOpts(role, q, engine.StreamOpts{ChunkRows: chunkRows})
}

// QueryStreamOpts is QueryStream with full stream options. Callers that
// set opts.ReuseChunks must treat every chunk as valid only until the
// next Next call (see engine.StreamOpts).
func (s *Server) QueryStreamOpts(role string, q engine.Query, opts engine.StreamOpts) (engine.ResultStream, error) {
	s.queries.Add(1)
	s.streams.Add(1)
	var st engine.ResultStream
	var err error
	if nt := s.served(q.Relation); nt != nil {
		st, err = s.hostedStream(nt, role, q, opts)
	} else {
		err = fmt.Errorf("%w: %q", engine.ErrUnknownRelation, q.Relation)
	}
	if err != nil {
		s.errors.Add(1)
		return nil, err
	}
	return s.timed(st), nil
}

// timed wraps a result stream so per-chunk assembly and whole-stream
// drain latency land in the registry. The wrapper changes no chunk
// bytes; it forwards Close so abandoning consumers still release
// fan-out producers.
func (s *Server) timed(st engine.ResultStream) *timedStream {
	return &timedStream{st: st, hChunk: s.hChunk, hTotal: s.hStream, start: time.Now()}
}

// timedStream decorates a ResultStream with stage timing: every Next is
// one stream_chunk observation (VO/stream assembly), and the terminal
// Next (io.EOF or error) closes the stream_total observation.
type timedStream struct {
	st             engine.ResultStream
	hChunk, hTotal *obs.Histogram
	start          time.Time
	assembleNS     int64
	finished       bool
}

func (t *timedStream) Next() (*engine.Chunk, error) {
	t0 := time.Now()
	c, err := t.st.Next()
	d := time.Since(t0)
	t.hChunk.Observe(d)
	t.assembleNS += int64(d)
	if err != nil && !t.finished {
		t.finished = true
		t.hTotal.ObserveSince(t.start)
	}
	return c, err
}

// Close forwards to the underlying stream (fan-out producer release).
func (t *timedStream) Close() error {
	if c, ok := t.st.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// breakdown reports the drain's stage split for timing trailers and the
// slow-query log: total wall time, assembly share, and the remainder
// (frame encode + flush + client backpressure on the serving path).
func (t *timedStream) breakdown() (total, assemble, remainder time.Duration) {
	total = time.Since(t.start)
	assemble = time.Duration(t.assembleNS)
	if total > assemble {
		remainder = total - assemble
	}
	return total, assemble, remainder
}

// accountStreamChunk records one shipped chunk frame in the stats.
func (s *Server) accountStreamChunk(bytes int) {
	s.streamChunks.Add(1)
	s.streamBytes.Add(uint64(bytes))
}

// Epoch returns the global cutover counter.
func (s *Server) Epoch() uint64 { return s.epochs.Load() }

// Stats is a point-in-time server snapshot, served on /statsz and
// aggregated into the process expvar.
type Stats struct {
	Queries, DeltasApplied, Errors uint64
	// Streams counts /stream queries; StreamChunks and StreamBytes
	// account the shipped frames — the per-chunk traffic a capacity
	// planner multiplies out instead of per-result peaks.
	Streams, StreamChunks, StreamBytes uint64
	Epoch                              uint64
	// Relations counts the records of every relation the server answers
	// for: every relation whose every shard is hosted.
	Relations map[string]int
	// Hosted carries the shard inventory: one line per shard slice this
	// process hosts — installed by a cluster coordinator, by AddPartition,
	// or by AddRelation as shard 0 — with the slice's epoch, record
	// count, committed deltas, and served sub-streams. ShardStreams totals
	// the sub-streams served to a coordinator.
	Hosted       map[string][]NodeShardStat `json:",omitempty"`
	ShardStreams uint64                     `json:",omitempty"`
	// Installs counts shard slices accepted over the transfer wire.
	// Always rendered (no omitempty): a node that rejoined from its WAL
	// proves the zero-re-transfer claim with an explicit "Installs":0.
	Installs uint64
	// Store is the durable-store view (WAL appends, snapshots, cold
	// starts, replay depth); nil when the node runs memory-only.
	Store *store.NodeStats `json:",omitempty"`
	// Lease is the node-mode lease view: which coordinator last
	// heartbeated this node, at which routing epoch, and whether the
	// lease is still live — what scripts/replica_smoke.sh and operators
	// assert on. Nil outside node mode.
	Lease *NodeLeaseStat `json:",omitempty"`
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	rels := map[string]int{}
	hosted := s.nodeStats(rels)
	return Stats{
		Queries:       s.queries.Load(),
		DeltasApplied: s.deltasApplied.Load(),
		Errors:        s.errors.Load(),
		Streams:       s.streams.Load(),
		StreamChunks:  s.streamChunks.Load(),
		StreamBytes:   s.streamBytes.Load(),
		Epoch:         s.epochs.Load(),
		Relations:     rels,
		Hosted:        hosted,
		ShardStreams:  s.shardStreams.Load(),
		Installs:      s.installs.Load(),
		Store:         s.storeStats(),
		Lease:         s.leaseStat(),
	}
}

// --- process-wide expvar aggregation ---------------------------------

// processVar is the vcqr_server expvar: the counters of every live
// Server of the process, summed.
var processVar = obs.Aggregate[*Server]{Name: "vcqr_server", Fold: func(live []*Server) any {
	var agg Stats
	for _, srv := range live {
		st := srv.Stats()
		// The table includes node mode's fan-out sub-streams, which keeps
		// the aggregate meaningful for every serving mode.
		obs.SumCounters(counters, &agg, &st)
	}
	return agg
}}
