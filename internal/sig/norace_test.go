//go:build !race

package sig

const raceEnabled = false
