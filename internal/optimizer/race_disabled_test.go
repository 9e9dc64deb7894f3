//go:build !race

package optimizer

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
