//go:build race

package server_test

// raceEnabled reports a -race build. The race detector's sync.Pool drops
// a quarter of its Puts by design, so pooled hashing state is
// reallocated at random and allocation counts stop measuring the code;
// the allocation gates hold in the non-race run.
const raceEnabled = true
