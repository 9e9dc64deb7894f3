//go:build race

package exchange

// raceEnabled reports whether the race detector instruments this build.
// Race instrumentation makes sync.Pool drop puts, so the exact
// allocation pins on paths that encode through the sparse package's
// pooled scratch hold only in uninstrumented builds.
const raceEnabled = true
