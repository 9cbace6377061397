//go:build race

package vcgen_test

// raceEnabled reports whether the race detector is compiled in; the
// slowest Figure 9 programs are skipped under it.
const raceEnabled = true
