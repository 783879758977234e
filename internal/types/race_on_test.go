//go:build race

package types

// raceEnabled reports whether the race detector is compiled in; the
// allocation budgets skip themselves under -race.
const raceEnabled = true
