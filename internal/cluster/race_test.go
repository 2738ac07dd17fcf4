//go:build race

package cluster_test

// raceEnabled reports a -race build. The race detector's sync.Pool drops
// a quarter of its Puts by design, so pooled encoder scratch and hashx
// kernel state are reallocated at random and allocation counts stop
// measuring the code; the allocation gates hold in the non-race run.
const raceEnabled = true
