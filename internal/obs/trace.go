package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Request tracing. A trace ID is minted where a query enters the system
// (the coordinator, or a single-process server) and propagated to shard
// nodes in the Trace field of both stream requests (wire.StreamRequest,
// wire.ShardStreamRequest) — a fixed field of the field codec, empty
// when untraced. Trace IDs are advisory: they label operational records
// (slow-log entries, timing trailers) and are never part of the verified
// material.

// traceSeed is mixed into every minted ID so IDs from different
// processes don't collide on a shared counter start.
var traceSeed = func() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint64(b[:])
}()

var traceCtr atomic.Uint64

// NewTraceID mints a process-unique 16-hex-digit trace ID. The counter
// is mixed through a splitmix64 finalizer so successive IDs share no
// visible structure.
func NewTraceID() string {
	x := traceSeed + traceCtr.Add(1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	const hex = "0123456789abcdef"
	var out [16]byte
	for i := 15; i >= 0; i-- {
		out[i] = hex[x&0xf]
		x >>= 4
	}
	return string(out[:])
}

// StageDur is one stage's share of a request, serialized into slow-log
// entries (JSON) and stream timing trailers (the wire field codec).
type StageDur struct {
	Stage string
	NS    int64
}

// D returns the duration.
func (s StageDur) D() time.Duration { return time.Duration(s.NS) }

// Span accumulates the per-stage breakdown of one request under a trace
// ID. It is cheap enough to build unconditionally on serving paths; the
// slow log decides afterwards whether the finished span is worth keeping.
type Span struct {
	Trace string
	start time.Time

	mu     sync.Mutex
	stages []StageDur
}

// StartSpan opens a span. An empty trace mints a fresh ID, so every
// entry point can call StartSpan(req.Trace) and get propagation and
// minting in one line.
func StartSpan(trace string) *Span {
	if trace == "" {
		trace = NewTraceID()
	}
	return &Span{Trace: trace, start: time.Now()}
}

// Add appends one stage duration.
func (s *Span) Add(stage string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.stages = append(s.stages, StageDur{Stage: stage, NS: int64(d)})
	s.mu.Unlock()
}

// AddNS appends one stage duration given in nanoseconds (the wire form).
func (s *Span) AddNS(stage string, ns int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.stages = append(s.stages, StageDur{Stage: stage, NS: ns})
	s.mu.Unlock()
}

// Stages returns a copy of the recorded breakdown.
func (s *Span) Stages() []StageDur {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StageDur, len(s.stages))
	copy(out, s.stages)
	return out
}

// Start returns the span's start time.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Elapsed returns the time since the span started.
func (s *Span) Elapsed() time.Duration {
	if s == nil {
		return 0
	}
	return time.Since(s.start)
}

// Slow-query log defaults.
const (
	// DefaultSlowLogCap bounds retained entries; the log is a ring, so
	// memory is fixed no matter how many queries cross the threshold.
	DefaultSlowLogCap = 128
	// DefaultSlowThreshold is the minimum total duration for a span to
	// be retained when the operator configures nothing.
	DefaultSlowThreshold = 100 * time.Millisecond
)

// SlowEntry is one retained slow request.
type SlowEntry struct {
	Trace string
	// Op names the serving path: query, batch, stream, delta, substream,
	// rebalance...
	Op string
	// Detail is free-form context (role/relation/span), never trusted.
	Detail string
	Start  time.Time
	NS     int64
	Stages []StageDur
}

// Total returns the entry's end-to-end duration.
func (e SlowEntry) Total() time.Duration { return time.Duration(e.NS) }

// SlowLog is a bounded ring of SlowEntry with an atomically adjustable
// threshold. Threshold <= 0 with capacity 0 disables it; threshold 0
// with capacity retains everything (useful in tests).
type SlowLog struct {
	thresholdNS atomic.Int64
	// capacity is fixed at construction; Record consults it before
	// taking the lock, so it must not live in the buf slice header
	// (which append rewrites under mu).
	capacity int

	mu   sync.Mutex
	buf  []SlowEntry
	next int
	seen uint64
}

// NewSlowLog creates a log retaining up to capacity entries at or above
// threshold.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	l := &SlowLog{}
	if capacity > 0 {
		l.capacity = capacity
		l.buf = make([]SlowEntry, 0, capacity)
	}
	l.thresholdNS.Store(int64(threshold))
	return l
}

// SetThreshold adjusts the retention threshold; negative disables
// recording entirely.
func (l *SlowLog) SetThreshold(d time.Duration) {
	if l == nil {
		return
	}
	l.thresholdNS.Store(int64(d))
}

// Threshold returns the current retention threshold.
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return -1
	}
	return time.Duration(l.thresholdNS.Load())
}

// Record retains the entry when it meets the threshold, evicting the
// oldest entry once the ring is full. It reports whether the entry was
// kept.
func (l *SlowLog) Record(e SlowEntry) bool {
	if l == nil || l.capacity == 0 {
		return false
	}
	th := l.thresholdNS.Load()
	if th < 0 || e.NS < th {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seen++
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
		return true
	}
	l.buf[l.next] = e
	l.next = (l.next + 1) % len(l.buf)
	return true
}

// Finish closes a span into the log: one call records the span's stages
// under the given op/detail with the elapsed total.
func (l *SlowLog) Finish(sp *Span, op, detail string) {
	if l == nil || sp == nil {
		return
	}
	l.Record(SlowEntry{
		Trace:  sp.Trace,
		Op:     op,
		Detail: detail,
		Start:  sp.start,
		NS:     int64(time.Since(sp.start)),
		Stages: sp.Stages(),
	})
}

// Entries returns retained entries, newest first.
func (l *SlowLog) Entries() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, len(l.buf))
	for i := 0; i < len(l.buf); i++ {
		// Walk backwards from the most recently written slot.
		idx := (l.next - 1 - i + 2*len(l.buf)) % len(l.buf)
		if len(l.buf) < cap(l.buf) {
			// Ring not yet wrapped: slots fill 0..len-1 in order.
			idx = len(l.buf) - 1 - i
		}
		out = append(out, l.buf[idx])
	}
	return out
}

// FormatNS renders a nanosecond count for human output (vcquery
// -timing): microsecond precision below 10ms, millisecond above.
func FormatNS(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d < 10*time.Millisecond:
		return strconv.FormatFloat(float64(ns)/1e3, 'f', 1, 64) + "µs"
	case d < 10*time.Second:
		return strconv.FormatFloat(float64(ns)/1e6, 'f', 2, 64) + "ms"
	default:
		return d.Round(10 * time.Millisecond).String()
	}
}
