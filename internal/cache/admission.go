package cache

import (
	"sync"
	"time"
)

// Admission policy. Caching a range that is never asked for again is
// pure loss — the fill costs one put plus the bytes it evicts, and the
// trust model gives caching no correctness value — so a key is admitted
// by observed frequency, and one entry may not crowd out the working set.
const (
	// defaultMinAccesses admits on the second sighting: a fill costs about
	// one extra origin drain and a hit saves about the same, so one repeat
	// amortizes it.
	defaultMinAccesses = 2
	// defaultMaxEntry bounds one entry to a sixteenth of a peer's default
	// byte budget, so a single giant range cannot evict everything else.
	defaultMaxEntry = int(DefaultBudget / 16)
	// trackedKeys bounds the admission frequency tracker.
	trackedKeys = 4096
	// waitTimeout bounds how long a collapsed miss waits for the in-flight
	// fill before giving up and going to origin.
	waitTimeout = 10 * time.Second
)

// accessStats is a concurrent, decaying access-frequency tracker over
// cache key strings: it keeps one-off cold ranges from polluting a
// byte-budgeted cache.
//
// Decay is generational: when the tracked key set outgrows max, every
// count is halved and zeroes are pruned, so sustained heat survives and
// ancient one-offs age out.
type accessStats struct {
	mu     sync.Mutex
	max    int
	counts map[string]uint32
}

func newAccessStats(max int) *accessStats {
	return &accessStats{max: max, counts: make(map[string]uint32, max/4)}
}

// touch records one access and returns the key's decayed count,
// including this touch.
func (a *accessStats) touch(key string) uint32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.counts[key] + 1
	a.counts[key] = c
	if len(a.counts) > a.max {
		for k, v := range a.counts {
			v /= 2
			if v == 0 {
				delete(a.counts, k)
			} else {
				a.counts[k] = v
			}
		}
	}
	return c
}
