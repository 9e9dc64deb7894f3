//go:build !race

package exchange

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
