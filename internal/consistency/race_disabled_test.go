//go:build !race

package consistency

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
