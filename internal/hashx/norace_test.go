//go:build !race

package hashx

const raceEnabled = false
