//go:build race

package lp

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
