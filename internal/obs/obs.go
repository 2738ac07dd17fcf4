// Package obs is the observability layer: stage timers, lock-free
// log-bucketed latency histograms, request tracing with a bounded
// slow-query log, and a Prometheus-text export tier. It depends only on
// the standard library so every other package can import it freely.
//
// The histogram is custom (rather than a fixed-quantile sketch) for one
// reason: mergeability. A coordinator scrapes its shard nodes' snapshots
// and folds them into cluster-level aggregates; log-spaced buckets with
// plain counters merge by addition with no loss beyond the bucket
// resolution itself. Buckets grow by a factor of ~1.5, which keeps the
// worst-case quantile error under ~25% across nine decades of latency
// (100ns to ~40s) in a fixed 48+1 slots of 8 bytes each.
//
// Nothing recorded here participates in verification: trace IDs, stage
// durations and histogram state are advisory operational data. The
// signature chain alone proves result integrity (see DESIGN.md,
// "Observability").
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of finite histogram buckets. Bucket i spans
// (bounds[i-1], bounds[i]] nanoseconds; one extra overflow bucket counts
// observations beyond the last bound.
const NumBuckets = 48

// bucketBounds holds the upper bound of each finite bucket in
// nanoseconds: 100ns × 1.5^i, precomputed at init so Observe is a binary
// search over a read-only table.
var bucketBounds [NumBuckets]int64

func init() {
	b := 100.0
	for i := range bucketBounds {
		bucketBounds[i] = int64(b)
		b *= 1.5
	}
}

// BucketBounds returns the shared bucket upper bounds in nanoseconds.
// All histograms in a process (and across processes built from the same
// source) use the same geometry — that is what makes snapshots mergeable.
func BucketBounds() []int64 {
	out := make([]int64, NumBuckets)
	copy(out[:], bucketBounds[:])
	return out
}

// Histogram is a lock-free latency histogram: one atomic counter per
// bucket plus an atomic sum. Observe is safe from any number of
// goroutines and never allocates. A nil *Histogram is a valid no-op
// recorder, so disabled instrumentation costs one branch.
type Histogram struct {
	counts [NumBuckets + 1]atomic.Uint64
	sumNS  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	i := sort.Search(NumBuckets, func(i int) bool { return bucketBounds[i] >= ns })
	h.counts[i].Add(1)
	h.sumNS.Add(ns)
}

// ObserveSince records the time elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0))
}

// Snapshot captures a consistent-enough copy of the histogram for
// merging, quantile extraction and export. Counters are read
// individually, so a snapshot taken under concurrent writes may be off
// by in-flight observations — fine for monitoring, never used for
// verification.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	if h == nil {
		return s
	}
	s.Counts = make([]uint64, NumBuckets+1)
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.SumNS = h.sumNS.Load()
	return s
}

// Snapshot is the portable state of a histogram: per-bucket counts plus
// the exact sum of observed nanoseconds. Snapshots from any process
// sharing the bucket geometry merge by addition.
type Snapshot struct {
	Counts []uint64
	SumNS  int64
}

// Count returns the total number of observations.
func (s Snapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Merge returns the sum of two snapshots. Length mismatches (snapshots
// from a build with different bucket geometry) are handled by padding to
// the longer shape so no counts are silently dropped.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	n := len(s.Counts)
	if len(o.Counts) > n {
		n = len(o.Counts)
	}
	out := Snapshot{Counts: make([]uint64, n), SumNS: s.SumNS + o.SumNS}
	for i := range s.Counts {
		out.Counts[i] += s.Counts[i]
	}
	for i := range o.Counts {
		out.Counts[i] += o.Counts[i]
	}
	return out
}

// Quantile returns an estimate of the p-quantile (0 < p <= 1) with
// linear interpolation inside the landing bucket. An empty snapshot
// returns 0; ranks landing in the overflow bucket return the last finite
// bound (a floor, not an estimate).
func (s Snapshot) Quantile(p float64) time.Duration {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(total)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= NumBuckets {
			return time.Duration(bucketBounds[NumBuckets-1])
		}
		lo := int64(0)
		if i > 0 {
			lo = bucketBounds[i-1]
		}
		hi := bucketBounds[i]
		frac := (rank - prev) / float64(c)
		return time.Duration(lo + int64(frac*float64(hi-lo)))
	}
	return time.Duration(bucketBounds[NumBuckets-1])
}

// Stage names recorded across the serving stack. A registry key is
// either a bare stage name or "stage|key=value[,key=value...]" when the
// series carries extra labels (e.g. per-node sub-stream latency).
const (
	StageVOAssemble   = "vo_assemble"       // server: VO assembly, summed over one stream's chunks
	StageStreamChunk  = "stream_chunk"      // per-chunk assembly (ResultStream.Next)
	StageStreamTotal  = "stream_total"      // whole-stream drain, first byte to footer
	StageAggIndex     = "agg_index"         // engine: product-tree range aggregate
	StageSeamCheck    = "seam_check"        // cluster: hand-off / seam proof checks
	StageFanoutMerge  = "fanout_merge"      // coordinator: merged /stream, open to footer
	StageWireEncode   = "wire_encode"       // server: chunk frame encode + flush
	StageVerify       = "verify"            // client: per-chunk verifier cost
	StageDeltaApply   = "delta_apply"       // server: single-process delta ingest
	StageSubStream    = "substream"         // coordinator: per-node shard sub-stream
	StagePinFeeds     = "pin_feeds"         // coordinator: epoch-pinned fan-out open
	StageDeltaPrepare = "delta_prepare"     // cluster: two-phase delta, prepare
	StageDeltaMirror  = "delta_mirror"      // cluster: two-phase delta, mirror fixes
	StageDeltaSeam    = "delta_seam"        // cluster: two-phase delta, seam re-proof
	StageDeltaCommit  = "delta_commit"      // cluster: two-phase delta, commit
	StageRebalCopy    = "rebalance_copy"    // cluster: migration copy + catch-up
	StageRebalCutover = "rebalance_cutover" // cluster: migration cutover lock window
	StageCacheGet     = "cache_get"         // cluster: edge-cache tier probe
	StageCacheFill    = "cache_fill"        // cluster: origin tee into an async cache fill
	StageFailover     = "failover"          // cluster: mid-stream re-pin to a sibling replica
)

// Labeled builds a registry key carrying extra labels:
// Labeled(StageSubStream, "node", url) -> "substream|node=<url>".
func Labeled(stage string, kv ...string) string {
	key := stage
	for i := 0; i+1 < len(kv); i += 2 {
		sep := "|"
		if i > 0 {
			sep = ","
		}
		key += sep + kv[i] + "=" + kv[i+1]
	}
	return key
}

// SplitName splits a registry key back into the stage name and its extra
// label pairs.
func SplitName(key string) (stage string, labels [][2]string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '|' {
			stage = key[:i]
			rest := key[i+1:]
			for len(rest) > 0 {
				part := rest
				if j := indexByte(rest, ','); j >= 0 {
					part, rest = rest[:j], rest[j+1:]
				} else {
					rest = ""
				}
				if j := indexByte(part, '='); j >= 0 {
					labels = append(labels, [2]string{part[:j], part[j+1:]})
				}
			}
			return stage, labels
		}
	}
	return key, nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// Registry holds a process's named stage histograms and its slow-query
// log. Hist is get-or-create; hot paths should resolve their histogram
// pointers once and call Observe directly. A nil registry hands out nil
// histograms, so uninstrumented callers pay one nil check.
type Registry struct {
	mu    sync.RWMutex
	hists map[string]*Histogram

	// Slow is the bounded slow-query log fed by the serving layers.
	Slow *SlowLog
}

// NewRegistry creates a registry with a default slow-query log
// (capacity DefaultSlowLogCap, threshold DefaultSlowThreshold).
func NewRegistry() *Registry {
	return &Registry{
		hists: make(map[string]*Histogram),
		Slow:  NewSlowLog(DefaultSlowLogCap, DefaultSlowThreshold),
	}
}

// Hist returns the named histogram, creating it on first use. On a nil
// registry it returns nil, which is a valid no-op recorder.
func (r *Registry) Hist(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Observe records d into the named histogram (convenience for cold
// paths; hot paths cache the *Histogram).
func (r *Registry) Observe(name string, d time.Duration) {
	r.Hist(name).Observe(d)
}

// Snapshot captures every histogram in the registry.
func (r *Registry) Snapshot() map[string]Snapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]Snapshot, len(r.hists))
	for name, h := range r.hists {
		out[name] = h.Snapshot()
	}
	return out
}
