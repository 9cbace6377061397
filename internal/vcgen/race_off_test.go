//go:build !race

package vcgen_test

// raceEnabled mirrors race_on_test.go for builds without the race
// detector.
const raceEnabled = false
