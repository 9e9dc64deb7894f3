//go:build race

package consistency

// raceEnabled reports whether the race detector instruments this build.
// Race instrumentation makes sync.Pool drop puts, so the zero-allocation
// pin on an indexed update, which Add reads through the sparse package's
// pooled pair sort, holds only in uninstrumented builds.
const raceEnabled = true
