package sched

import (
	"math"
	"testing"
	"time"

	"mlless/internal/fit"
	"mlless/internal/xrand"
)

// observer returns an Observe for tuner that first smooths each raw loss
// with the engine's default EWMA (α = 0.25). The tuner stores the stream
// it is given, and these tests' thresholds were set on smoothed curves.
func observer(tuner *Tuner) func(step int, loss float64, dur time.Duration) {
	e := fit.NewEWMA(0.25)
	return func(step int, loss float64, dur time.Duration) {
		tuner.Observe(step, e.Update(loss), dur)
	}
}

// feed drives a tuner with a synthetic loss curve: exponential decay to
// a floor, with per-step duration dur, and runs the epoch clock. It
// returns the removal steps.
func feed(t *Tuner, steps int, dur time.Duration, floor float64, noise float64, seed uint64) []int {
	r := xrand.New(seed)
	observe := observer(t)
	var removals []int
	now := time.Duration(0)
	workers := 24
	for step := 1; step <= steps; step++ {
		now += dur
		loss := floor + 1.2*math.Exp(-4*float64(step)/float64(steps/3)) + r.NormFloat64()*noise
		observe(step, loss, dur)
		d := t.Decide(now, step, workers)
		if d.Remove {
			removals = append(removals, step)
			workers--
			t.NotifyRemoval(step)
		}
	}
	return removals
}

func TestNoRemovalBeforeKnee(t *testing.T) {
	tuner := New(Config{Epoch: time.Second})
	r := xrand.New(1)
	observe := observer(tuner)
	now := time.Duration(0)
	// Feed only the steep region: loss still dropping fast.
	for step := 1; step <= 30; step++ {
		now += time.Second
		loss := 2 * math.Exp(-0.01*float64(step))
		observe(step, loss+r.NormFloat64()*1e-4, time.Second)
		if d := tuner.Decide(now, step, 24); d.Remove {
			t.Fatalf("removed a worker at step %d, before any knee", step)
		}
	}
	if _, found := tuner.KneeStep(); found {
		t.Fatal("knee found in steep region")
	}
}

func TestFirstRemovalAtKnee(t *testing.T) {
	tuner := New(Config{Epoch: time.Second})
	removals := feed(tuner, 400, time.Second, 0.5, 0, 2)
	if len(removals) == 0 {
		t.Fatal("auto-tuner never removed a worker")
	}
	kneeStep, found := tuner.KneeStep()
	if !found {
		t.Fatal("knee not recorded")
	}
	if removals[0] < kneeStep {
		t.Fatalf("first removal (step %d) before the knee (step %d)", removals[0], kneeStep)
	}
	if _, ok := tuner.ReferenceCurve(); !ok {
		t.Fatal("reference curve not fitted at knee")
	}
}

func TestContinuedRemovalsWhenFlat(t *testing.T) {
	// A flat post-knee curve matches the reference projection, so s_Δ ≈ 0
	// < S and the tuner should keep scaling in across epochs.
	tuner := New(Config{Epoch: time.Second, S: 0.05})
	removals := feed(tuner, 600, time.Second, 0.5, 0, 3)
	if len(removals) < 3 {
		t.Fatalf("expected repeated scale-in on a flat curve, got removals at %v", removals)
	}
}

func TestEpochGating(t *testing.T) {
	tuner := New(Config{Epoch: 20 * time.Second})
	// Decisions between epochs must be epoch-pending regardless of data.
	tuner.Observe(1, 1.0, time.Second)
	d := tuner.Decide(5*time.Second, 1, 24)
	if d.Reason == "" {
		t.Fatal("missing reason")
	}
	// First call at t=5s triggers (lastEpochAt starts at 0 — 5s < 20s).
	if d.Remove {
		t.Fatal("removal before first epoch elapsed")
	}
}

func TestMinWorkersFloor(t *testing.T) {
	tuner := New(Config{Epoch: time.Second, MinWorkers: 23})
	r := xrand.New(4)
	observe := observer(tuner)
	now := time.Duration(0)
	workers := 24
	removed := 0
	for step := 1; step <= 500; step++ {
		now += time.Second
		loss := 0.5 + 1.2*math.Exp(-4*float64(step)/100) + r.NormFloat64()*1e-5
		observe(step, loss, time.Second)
		if d := tuner.Decide(now, step, workers); d.Remove {
			workers--
			removed++
			tuner.NotifyRemoval(step)
		}
	}
	if removed > 1 {
		t.Fatalf("removed %d workers past the MinWorkers floor", removed)
	}
	if workers < 23 {
		t.Fatalf("worker count %d below floor", workers)
	}
}

func TestNoRemovalWhenDegradationHigh(t *testing.T) {
	// After the first (knee) removal, make the observed loss curve jump
	// far above the reference projection: s_Δ must exceed S and block
	// further removals.
	tuner := New(Config{Epoch: time.Second, S: 0.02})
	r := xrand.New(5)
	observe := observer(tuner)
	now := time.Duration(0)
	workers := 24
	var removals []int
	for step := 1; step <= 600; step++ {
		now += time.Second
		var loss float64
		if len(removals) == 0 {
			loss = 0.5 + 1.2*math.Exp(-4*float64(step)/120)
		} else {
			// Severe regression after the first removal: loss rebounds
			// and stays high.
			loss = 1.4 + 0.05*math.Exp(-float64(step)/600)
		}
		observe(step, loss+r.NormFloat64()*1e-5, time.Second)
		if d := tuner.Decide(now, step, workers); d.Remove {
			removals = append(removals, step)
			workers--
			tuner.NotifyRemoval(step)
		}
	}
	if len(removals) > 1 {
		t.Fatalf("tuner kept removing (at steps %v) despite severe degradation", removals)
	}
}

func TestDecisionLogPopulated(t *testing.T) {
	tuner := New(Config{Epoch: time.Second})
	feed(tuner, 300, time.Second, 0.5, 0, 6)
	if len(tuner.Decisions()) == 0 {
		t.Fatal("no decisions logged")
	}
	seen := map[string]bool{}
	for _, d := range tuner.Decisions() {
		seen[d.Reason] = true
	}
	if !seen["knee"] {
		t.Fatalf("no knee decision logged: %v", seen)
	}
}

// TestObservePassesLossThrough pins that the tuner stores the loss it is
// given: smoothing is the engine's, done once.
func TestObservePassesLossThrough(t *testing.T) {
	tuner := New(Config{})
	tuner.Observe(1, 10, time.Second)
	tuner.Observe(2, 0, time.Second)
	if got := tuner.SmoothedLosses(); len(got) != 2 || got[0] != 10 || got[1] != 0 {
		t.Fatalf("loss history = %v, want [10 0]", got)
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	cfg := (Config{}).withDefaults()
	if cfg.Epoch != 20*time.Second {
		t.Fatalf("default epoch %v, want the paper's 20s", cfg.Epoch)
	}
	if cfg.Horizon != 10*time.Second {
		t.Fatalf("default horizon %v, want Δ = T/2 = 10s", cfg.Horizon)
	}
	if cfg.MinWorkers != 1 {
		t.Fatal("default MinWorkers != 1")
	}
}

func TestFasterStepsExtendHorizonSteps(t *testing.T) {
	// With d_p < d_P the current curve is evaluated more steps ahead —
	// verify indirectly: a post-removal curve identical to the reference
	// but with faster steps yields s_Δ ≤ 0 (throughput strictly better).
	tuner := New(Config{Epoch: time.Second, S: 0.05})
	r := xrand.New(7)
	observe := observer(tuner)
	now := time.Duration(0)
	workers := 24
	removed := false
	var sAfter []float64
	for step := 1; step <= 500; step++ {
		dur := time.Second
		if removed {
			dur = 500 * time.Millisecond // steps twice as fast after removal
		}
		now += dur
		loss := 0.5 + 1.2*math.Exp(-4*float64(step)/100) + r.NormFloat64()*1e-6
		observe(step, loss, dur)
		d := tuner.Decide(now, step, workers)
		if d.Remove {
			workers--
			removed = true
			tuner.NotifyRemoval(step)
		} else if removed && (d.Reason == "s-below-threshold" || d.Reason == "s-above-threshold") {
			sAfter = append(sAfter, d.SDelta)
		}
	}
	// Judge only the decisions shortly after the removal: far-horizon
	// extrapolation of the power-law reference beyond its fitted region
	// drifts conservatively upward by design.
	if len(sAfter) > 10 {
		sAfter = sAfter[:10]
	}
	sum := 0.0
	for _, s := range sAfter {
		if s > 0.15 {
			t.Fatalf("s_Δ = %v despite faster, equally convergent steps", s)
		}
		sum += s
	}
	if len(sAfter) > 0 && sum/float64(len(sAfter)) > 0.08 {
		t.Fatalf("mean s_Δ = %v; expected ≈ 0 for equal convergence with faster steps", sum/float64(len(sAfter)))
	}
}

// feedShrink drives a tuner with the synthetic decay curve while a
// control-plane shrink request for n workers is pending from the start.
// It returns the steps at which shrink removals were honored and the
// decision reasons seen, pinning the admission-path behavior.
func feedShrink(t *Tuner, n, steps int, dur time.Duration, workers int) (removals []int, reasons []string) {
	t.RequestShrink(n)
	observe := observer(t)
	now := time.Duration(0)
	for step := 1; step <= steps; step++ {
		now += dur
		loss := 0.5 + 1.2*math.Exp(-4*float64(step)/float64(steps/3))
		observe(step, loss, dur)
		for t.PendingShrink() > 0 {
			d := t.DecideShrink(now, step, workers)
			reasons = append(reasons, d.Reason)
			if !d.Remove {
				break
			}
			removals = append(removals, step)
			workers--
			t.NotifyRemoval(step)
		}
	}
	return removals, reasons
}

func TestShrinkWaitsForKnee(t *testing.T) {
	tuner := New(Config{})
	removals, reasons := feedShrink(tuner, 2, 400, time.Second, 24)
	if len(removals) != 2 {
		t.Fatalf("shrink removals = %v, want 2 honored", removals)
	}
	kneeStep, found := tuner.KneeStep()
	if !found {
		t.Fatal("knee not recorded")
	}
	for _, step := range removals {
		if step < kneeStep {
			t.Fatalf("shrink honored at step %d, before knee %d", step, kneeStep)
		}
	}
	// Every pre-knee poll must have refused with "before-knee"; the
	// honored ones are "pool-shrink".
	for i, r := range reasons {
		if r != "before-knee" && r != "pool-shrink" {
			t.Fatalf("reason[%d] = %q", i, r)
		}
	}
	if tuner.PendingShrink() != 0 {
		t.Fatalf("pending = %d after honoring", tuner.PendingShrink())
	}
}

func TestShrinkRespectsMinWorkersFloor(t *testing.T) {
	tuner := New(Config{MinWorkers: 8})
	// Ask for far more than the pool can give: the floor must stop the
	// shrink and drop the unsatisfiable remainder.
	removals, _ := feedShrink(tuner, 100, 400, time.Second, 10)
	if len(removals) != 2 {
		t.Fatalf("removals = %d, want 2 (10 -> floor 8)", len(removals))
	}
	if tuner.PendingShrink() != 0 {
		t.Fatalf("unsatisfiable requests not dropped: pending = %d", tuner.PendingShrink())
	}
	last := tuner.Decisions()[len(tuner.Decisions())-1]
	if last.Reason != "at-min-workers" {
		t.Fatalf("last reason = %q, want at-min-workers", last.Reason)
	}
	// At the floor, further polls keep refusing.
	tuner.RequestShrink(1)
	if d := tuner.DecideShrink(500*time.Second, 401, 8); d.Remove {
		t.Fatal("removed below MinWorkers")
	}
}

func TestShrinkNoPendingIsNoOp(t *testing.T) {
	tuner := New(Config{})
	d := tuner.DecideShrink(time.Second, 1, 24)
	if d.Remove || d.Reason != "no-shrink-pending" {
		t.Fatalf("decision = %+v", d)
	}
	tuner.RequestShrink(0)
	tuner.RequestShrink(-3)
	if tuner.PendingShrink() != 0 {
		t.Fatalf("non-positive requests accumulated: %d", tuner.PendingShrink())
	}
}

// TestShrinkDeterministicAcrossRuns pins that the shrink-decision
// sequence is a pure function of the observation stream: two tuners fed
// the same seeded curve and request schedule decide identically.
func TestShrinkDeterministicAcrossRuns(t *testing.T) {
	run := func() ([]int, []string) {
		tuner := New(Config{MinWorkers: 4})
		return feedShrink(tuner, 3, 300, 750*time.Millisecond, 16)
	}
	r1, reasons1 := run()
	r2, reasons2 := run()
	if len(r1) != len(r2) {
		t.Fatalf("removal counts differ: %v vs %v", r1, r2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("removal steps differ at %d: %v vs %v", i, r1, r2)
		}
	}
	if len(reasons1) != len(reasons2) {
		t.Fatalf("reason logs differ: %d vs %d", len(reasons1), len(reasons2))
	}
	for i := range reasons1 {
		if reasons1[i] != reasons2[i] {
			t.Fatalf("reasons differ at %d: %q vs %q", i, reasons1[i], reasons2[i])
		}
	}
}

// TestShrinkDoesNotPerturbAutoTune pins that merely honoring a shrink
// request resets the auto-tuner's fit window the same way its own
// removals do (via NotifyRemoval in the driver above), and that the
// auto-tune decision path still works after shrink removals.
func TestShrinkThenAutoTuneStillDecides(t *testing.T) {
	tuner := New(Config{Epoch: time.Second, MinWorkers: 4})
	removals, _ := feedShrink(tuner, 1, 200, time.Second, 24)
	if len(removals) != 1 {
		t.Fatalf("shrink removals = %v", removals)
	}
	// The knee was consumed by the shrink; the auto-tuner must continue
	// from the estimation phase without re-removing at a "knee".
	d := tuner.Decide(1000*time.Second, 201, 23)
	if d.Reason == "knee" || d.Reason == "before-knee" {
		t.Fatalf("auto-tune phase after shrink = %q", d.Reason)
	}
}
