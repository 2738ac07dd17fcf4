package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vcqr/internal/hashx"
	"vcqr/internal/workload"
)

// atProcs runs fn at GOMAXPROCS 1 and 4: the inline branch and the pool.
func atProcs(t *testing.T, fn func(t *testing.T)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []int{1, 4} {
		runtime.GOMAXPROCS(p)
		t.Run(fmt.Sprintf("procs%d", p), fn)
	}
}

// flip is d with its first byte flipped, in fresh storage (record bytes
// are shared and never written in place).
func flip(d hashx.Digest) hashx.Digest {
	c := d.Clone()
	c[0] ^= 0x01
	return c
}

// parallelRange returns the lowest failing index's error, as a serial
// scan would, even when a higher index fails first; every index below it
// ran, and the indices above the first failure stopped being handed out.
// The order is set by events, not timing: in the pool, lowBad fails only
// once highBad has, and every index above highBad fails only once lowBad
// has — so a worker records a failure before it asks for another index,
// and none gets near the end.
func TestParallelRangeLowestFailure(t *testing.T) {
	const n, lowBad, highBad = 1000, 300, 700
	atProcs(t, func(t *testing.T) {
		pooled := runtime.GOMAXPROCS(0) > 1 // run inline, lowBad ends the scan
		var ran [n]atomic.Bool
		highFailed, lowFailed := make(chan struct{}), make(chan struct{})
		err := parallelRange(n, func(i int) error {
			ran[i].Store(true)
			switch {
			case i == lowBad:
				if pooled {
					<-highFailed
				}
				close(lowFailed)
			case i == highBad:
				close(highFailed)
			case i > highBad:
				<-lowFailed
			default:
				return nil
			}
			return fmt.Errorf("bad %d", i)
		})
		if err == nil || err.Error() != fmt.Sprintf("bad %d", lowBad) {
			t.Fatalf("got %v, want the error of index %d", err, lowBad)
		}
		for i := 0; i <= lowBad; i++ {
			if !ran[i].Load() {
				t.Fatalf("index %d below the failure never ran", i)
			}
		}
		if ran[n-1].Load() {
			t.Fatalf("index %d handed out after index %d failed", n-1, highBad)
		}
	})
}

// CheckEntries names the lowest bad entry whatever the worker count, and
// checks only the signatures sigged admits.
func TestCheckEntriesNamesLowestEntry(t *testing.T) {
	h, sr := uniformFixture(t, 256)
	pub := signKey(t).Public()
	bad := sr.Clone()
	bad.Own(200).AttrRoot = flip(bad.Recs[200].AttrRoot)
	a, b := bad.Own(100), bad.Own(101)
	a.Sig, b.Sig = b.Sig, a.Sig
	skip := func(i int) bool { return i != 100 && i != 101 }
	atProcs(t, func(t *testing.T) {
		if err := sr.CheckEntries(h, pub, nil); err != nil {
			t.Fatalf("honest relation refused: %v", err)
		}
		if err := bad.CheckEntries(h, pub, nil); err == nil || !strings.Contains(err.Error(), "entry 100 signature") {
			t.Fatalf("got %v, want entry 100's signature", err)
		}
		if err := bad.CheckEntries(h, pub, skip); err == nil || !strings.Contains(err.Error(), "entry 200 digest") {
			t.Fatalf("got %v, want entry 200's digests", err)
		}
	})
}

// uniformFixture signs an n-row workload.Uniform relation with the
// benchmark's shape: 64-byte payloads, a 32-bit key domain, base 2.
func uniformFixture(tb testing.TB, n int) (*hashx.Hasher, *SignedRelation) {
	tb.Helper()
	h := hashx.New()
	rel, err := workload.Uniform(workload.UniformConfig{N: n, L: 0, U: 1 << 32, PayloadSize: 64, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := NewParams(0, 1<<32, 2)
	if err != nil {
		tb.Fatal(err)
	}
	sr, err := Build(h, signKey(tb), p, rel)
	if err != nil {
		tb.Fatal(err)
	}
	return h, sr
}

// benchRelation is the benchmark's 4,096-row relation, signed once per
// process rather than once per b.N round.
var benchRelation struct {
	once sync.Once
	h    *hashx.Hasher
	sr   *SignedRelation
}

// BenchmarkCheckEntries is the per-entry cost of the publisher's
// whole-relation validation — digest material re-derived and every
// signature verified — over the benchmark's 4,096-row relation; run it
// with -cpu 1,2 for the serial and the pooled figure.
func BenchmarkCheckEntries(b *testing.B) {
	benchRelation.once.Do(func() { benchRelation.h, benchRelation.sr = uniformFixture(b, 4096) })
	h, sr := benchRelation.h, benchRelation.sr
	pub := signKey(b).Public()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sr.CheckEntries(h, pub, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sr.Recs)), "ns/entry")
}
