//go:build !race

package exper

// raceEnabled reports whether the tests run under the race detector, which
// slows simulation about twentyfold and changes what a run allocates.
const raceEnabled = false
