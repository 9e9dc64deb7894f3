// Package vclock provides the virtual time base of the MLLess simulator.
//
// The reproduction runs the paper's ML algorithms for real but derives
// elapsed wall-clock time analytically: every simulated component (FaaS
// worker, storage service, broker) charges durations to a Clock instead
// of sleeping. Per-worker clocks advance independently within a training
// step and are reconciled at BSP barriers, which yields exactly the
// "slowest worker paces the step" semantics of the paper's Bulk
// Synchronous Parallel execution (§3.1).
package vclock

import "time"

// Clock is a virtual clock. The zero value is a clock at time zero,
// ready to use.
//
// Clock is not safe for concurrent use; the simulator relies on an
// ownership contract instead of locks. Within a phase, exactly one
// driver goroutine executes a worker's state machine and is the sole
// reader and writer of that worker's clock (recoveries may swap the
// instance — and thus the clock — mid-phase, but only on the owning
// goroutine). Between phases, ownership passes to the engine's
// coordinating goroutine — the driver's join is the happens-before
// edge — which is when cross-clock operations (Barrier, Max, the
// supervisor reading publish instants) are allowed. The supervisor's
// clock is only ever touched by the coordinating goroutine.
type Clock struct {
	now time.Duration
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d. Negative d is ignored: virtual
// time never flows backwards.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.now += d
	}
}

// AdvanceTo moves the clock forward to t if t is later than now.
func (c *Clock) AdvanceTo(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

// Barrier synchronizes a set of clocks at a BSP boundary: every clock is
// advanced to the maximum of the set, and that time is returned. An empty
// set returns zero. Callers must hold ownership of every clock in the
// set — i.e. run on the coordinating goroutine between phases.
func Barrier(clocks []*Clock) time.Duration {
	var max time.Duration
	for _, c := range clocks {
		if c.now > max {
			max = c.now
		}
	}
	for _, c := range clocks {
		c.AdvanceTo(max)
	}
	return max
}

// Max returns the latest time among the clocks without synchronizing them.
func Max(clocks []*Clock) time.Duration {
	var max time.Duration
	for _, c := range clocks {
		if c.now > max {
			max = c.now
		}
	}
	return max
}
