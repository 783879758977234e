//go:build !race

package types

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
