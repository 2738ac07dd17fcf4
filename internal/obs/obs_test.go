package obs

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramMergeProperty pins the mergeability contract the
// coordinator's cluster aggregation depends on:
// merge(snap(a), snap(b)) == snap(a+b) for any observation split.
func TestHistogramMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var a, b, both Histogram
		n := 1 + rng.Intn(400)
		for i := 0; i < n; i++ {
			// Spread over nine decades, like real stage latencies.
			d := time.Duration(rng.Int63n(int64(40 * time.Second)))
			if rng.Intn(2) == 0 {
				d = time.Duration(rng.Int63n(int64(50 * time.Microsecond)))
			}
			if rng.Intn(2) == 0 {
				a.Observe(d)
			} else {
				b.Observe(d)
			}
			both.Observe(d)
		}
		merged := a.Snapshot().Merge(b.Snapshot())
		want := both.Snapshot()
		if merged.SumNS != want.SumNS {
			t.Fatalf("trial %d: merged sum %d, want %d", trial, merged.SumNS, want.SumNS)
		}
		if merged.Count() != want.Count() {
			t.Fatalf("trial %d: merged count %d, want %d", trial, merged.Count(), want.Count())
		}
		for i := range want.Counts {
			if merged.Counts[i] != want.Counts[i] {
				t.Fatalf("trial %d: bucket %d: merged %d, want %d", trial, i, merged.Counts[i], want.Counts[i])
			}
		}
	}
}

func TestMergeShapeMismatch(t *testing.T) {
	a := Snapshot{Counts: []uint64{1, 2}, SumNS: 10}
	b := Snapshot{Counts: []uint64{0, 0, 5}, SumNS: 7}
	m := a.Merge(b)
	if len(m.Counts) != 3 || m.Counts[0] != 1 || m.Counts[1] != 2 || m.Counts[2] != 5 || m.SumNS != 17 {
		t.Fatalf("padded merge wrong: %+v", m)
	}
}

// TestQuantileBounds checks that quantile estimates land within the
// bucket geometry's worst-case error (one x1.5 bucket) of the truth.
func TestQuantileBounds(t *testing.T) {
	var h Histogram
	for i := 0; i < 10000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond) // uniform 0..10ms
	}
	s := h.Snapshot()
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{
		{0.50, 5 * time.Millisecond},
		{0.95, 9500 * time.Microsecond},
		{0.99, 9900 * time.Microsecond},
	} {
		got := s.Quantile(tc.p)
		lo := time.Duration(float64(tc.want) / 1.6)
		hi := time.Duration(float64(tc.want) * 1.6)
		if got < lo || got > hi {
			t.Errorf("p%v = %v, want within [%v, %v]", tc.p, got, lo, hi)
		}
	}
	if s.Mean() < 4*time.Millisecond || s.Mean() > 6*time.Millisecond {
		t.Errorf("mean %v outside [4ms, 6ms]", s.Mean())
	}
	if (Snapshot{}).Quantile(0.5) != 0 {
		t.Errorf("empty snapshot quantile not 0")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(rng.Int63n(int64(time.Second))))
			}
		}(int64(w))
	}
	wg.Wait()
	if got := h.Snapshot().Count(); got != workers*per {
		t.Fatalf("count %d, want %d", got, workers*per)
	}
}

func TestNilAndDisabled(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if h.Snapshot().Count() != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
	var r *Registry
	r.Observe(StageVerify, time.Second) // must not panic
	if n := len(r.Snapshot()); n != 0 {
		t.Fatalf("nil registry recorded %d hists", n)
	}
}

func TestLabeledRoundTrip(t *testing.T) {
	key := Labeled(StageSubStream, "node", "http://127.0.0.1:9000", "shard", "3")
	stage, labels := SplitName(key)
	if stage != StageSubStream {
		t.Fatalf("stage %q", stage)
	}
	if len(labels) != 2 || labels[0] != [2]string{"node", "http://127.0.0.1:9000"} || labels[1] != [2]string{"shard", "3"} {
		t.Fatalf("labels %v", labels)
	}
	if s, l := SplitName("plain"); s != "plain" || l != nil {
		t.Fatalf("plain split: %q %v", s, l)
	}
}

func TestSlowLogRingAndThreshold(t *testing.T) {
	l := NewSlowLog(4, 10*time.Millisecond)
	if l.Record(SlowEntry{Trace: "fast", NS: int64(time.Millisecond)}) {
		t.Fatal("below-threshold entry retained")
	}
	for i := 0; i < 10; i++ {
		ok := l.Record(SlowEntry{Trace: string(rune('a' + i)), NS: int64(time.Second) + int64(i)})
		if !ok {
			t.Fatalf("entry %d dropped", i)
		}
	}
	got := l.Entries()
	if len(got) != 4 {
		t.Fatalf("retained %d entries, want 4", len(got))
	}
	// Newest first: j, i, h, g.
	for i, want := range []string{"j", "i", "h", "g"} {
		if got[i].Trace != want {
			t.Fatalf("entry %d trace %q, want %q (all: %+v)", i, got[i].Trace, want, got)
		}
	}
	if l.Seen() != 10 {
		t.Fatalf("seen %d, want 10", l.Seen())
	}
	l.SetThreshold(-1)
	if l.Record(SlowEntry{NS: int64(time.Hour)}) {
		t.Fatal("disabled threshold retained entry")
	}
}

func TestSpan(t *testing.T) {
	sp := StartSpan("")
	if len(sp.Trace) != 16 {
		t.Fatalf("minted trace %q", sp.Trace)
	}
	sp2 := StartSpan("deadbeefdeadbeef")
	if sp2.Trace != "deadbeefdeadbeef" {
		t.Fatalf("propagated trace %q", sp2.Trace)
	}
	sp.Add(StageVerify, time.Millisecond)
	sp.AddNS(StageWireEncode, 2000)
	st := sp.Stages()
	if len(st) != 2 || st[0].Stage != StageVerify || st[1].NS != 2000 {
		t.Fatalf("stages %+v", st)
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace id %q not 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

func TestPromHistogramOutput(t *testing.T) {
	var h Histogram
	h.Observe(50 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	var sb strings.Builder
	err := WriteHistogramFamily(&sb, "vcqr_stage_seconds", "per-stage latency",
		HistFamily(map[string]Snapshot{Labeled(StageSubStream, "node", "n1"): h.Snapshot()}))
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE vcqr_stage_seconds histogram",
		`vcqr_stage_seconds_bucket{stage="substream",node="n1",le="+Inf"} 3`,
		`vcqr_stage_seconds_count{stage="substream",node="n1"} 3`,
		`vcqr_stage_seconds_sum{stage="substream",node="n1"} 0.00405`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative and end at the total.
	if strings.Count(out, "_bucket{") != NumBuckets+1 {
		t.Errorf("want %d bucket lines, got %d", NumBuckets+1, strings.Count(out, "_bucket{"))
	}
}

func TestMergeAllDropsLabels(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Millisecond)
	b.Observe(time.Second)
	m := MergeAll(
		map[string]Snapshot{Labeled(StageSubStream, "node", "n1"): a.Snapshot()},
		map[string]Snapshot{Labeled(StageSubStream, "node", "n2"): b.Snapshot()},
	)
	if len(m) != 1 {
		t.Fatalf("merged into %d series, want 1: %v", len(m), m)
	}
	if m[StageSubStream].Count() != 2 {
		t.Fatalf("merged count %d, want 2", m[StageSubStream].Count())
	}
}

// Mean returns the exact mean of observed durations.
func (s Snapshot) Mean() time.Duration {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(s.SumNS / int64(n))
}

// Seen returns how many entries have ever been retained (including ones
// since evicted).
func (l *SlowLog) Seen() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen
}
