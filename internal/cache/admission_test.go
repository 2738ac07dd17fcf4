package cache

import (
	"strconv"
	"testing"
)

// TestAccessStatsDecay: counts accumulate per key; when the tracked set
// outgrows its bound one generation halves every count and prunes the
// zeroes, so a hot key survives a flood of one-offs and the flood does
// not.
func TestAccessStatsDecay(t *testing.T) {
	const max = 8
	a := newAccessStats(max)
	for want := uint32(1); want <= 5; want++ {
		if got := a.touch("hot"); got != want {
			t.Fatalf("touch #%d of hot = %d", want, got)
		}
	}
	// max-1 one-offs fill the tracker to its bound without a decay.
	for i := 0; i < max-1; i++ {
		if got := a.touch("cold" + strconv.Itoa(i)); got != 1 {
			t.Fatalf("first touch of a cold key = %d", got)
		}
	}
	if len(a.counts) != max || a.counts["hot"] != 5 {
		t.Fatalf("before decay: %d keys, hot=%d", len(a.counts), a.counts["hot"])
	}
	// One more key crosses the bound: the touch still reports the
	// undecayed count, then every count halves and the ones vanish.
	if got := a.touch("tip"); got != 1 {
		t.Fatalf("touch that triggers decay = %d, want 1", got)
	}
	if len(a.counts) != 1 || a.counts["hot"] != 2 {
		t.Fatalf("after decay: %v, want only hot=2", a.counts)
	}
	// An evicted key starts over; the survivor keeps its decayed heat.
	if got := a.touch("cold0"); got != 1 {
		t.Fatalf("evicted key restarted at %d", got)
	}
	if got := a.touch("hot"); got != 3 {
		t.Fatalf("hot after decay = %d, want 3", got)
	}
}
