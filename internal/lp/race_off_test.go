//go:build !race

package lp

// raceEnabled reports whether the race detector is compiled in; the dense
// reference solves of the 16×64 oracle cases take minutes under -race, and
// the solver runs on one goroutine, so those cases skip themselves there.
const raceEnabled = false
