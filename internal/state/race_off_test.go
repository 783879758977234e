//go:build !race

package state

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
