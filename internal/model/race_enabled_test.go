//go:build race

package model

// raceEnabled reports whether the race detector instruments this build.
// Race instrumentation makes sync.Pool drop puts (and inflates
// allocation counts generally), so the zero-allocation guards on
// pool-backed paths only hold in uninstrumented builds.
const raceEnabled = true
