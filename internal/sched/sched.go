// Package sched implements MLLess's scale-in auto-tuner (§4.2): a
// dynamic, fine-grained scheduler that removes "unneeded" workers as
// training progresses, exploiting the pay-per-use FaaS billing model to
// cut cost without impairing convergence.
//
// Protocol, exactly as the paper describes it:
//
//  1. Observe the per-step loss (EWMA-smoothed by the caller) and step
//     durations.
//
//  2. Detect the "knee" of the learning curve; never act before it.
//
//  3. At the knee, fit the reference curve L_P(t) (Eq. 2) on the history
//     so far and record the reference step duration d_P; then remove the
//     first worker.
//
//  4. At every subsequent scheduling epoch T, re-fit the slow-region
//     curve ℓ_p(t) (Eq. 3) on the losses observed since the last
//     removal, estimate the current step duration d_p, and compute the
//     relative projected loss-reduction error over horizon Δ (Eq. 1):
//
//     s_Δ(t) = [ℓ_p(t+⌊Δ/d_p⌋) − L_P(t+⌊Δ/d_P⌋)] / L_P(t+⌊Δ/d_P⌋)
//
//     Remove another worker when s_Δ(t) < S.
//
// Sign convention: Eq. 1 in the paper is printed with the operands in
// the other order, but its surrounding prose — s_Δ "tells how much the
// convergence rate may worsen with p workers", can be negative "which
// means that system throughput is indeed better as a result of removing
// workers", and scaling down proceeds while s_Δ(t) < S for small
// S ∈ [0, 1] — is only self-consistent when s_Δ measures the relative
// *degradation* of the p-worker projection, i.e. positive when the
// shrunk pool is projected to lag the reference and negative when the
// communication savings outweigh the lost parallelism. This package
// implements that semantics.
package sched

import (
	"time"

	"mlless/internal/fit"
	"mlless/internal/knee"
	"mlless/internal/trace"
)

// Config tunes the auto-tuner. Zero values select the paper's settings.
type Config struct {
	// Epoch is the scheduling interval T (paper: 20 s).
	Epoch time.Duration
	// Horizon is Δ, the look-ahead of the decision phase (paper: 10 s,
	// half the epoch).
	Horizon time.Duration
	// S is the scale-down threshold on s_Δ(t) in [0, 1].
	S float64
	// Knee selects the knee detector (default: the paper's
	// slope-threshold heuristic).
	Knee knee.Detector
	// MinWorkers is the floor below which the tuner never scales
	// (default 1).
	MinWorkers int
	// MinFitPoints is the number of post-removal observations required
	// before re-fitting ℓ_p (default 8; Eq. 3 has 4 parameters).
	MinFitPoints int
}

func (c Config) withDefaults() Config {
	if c.Epoch <= 0 {
		c.Epoch = 20 * time.Second
	}
	if c.Horizon <= 0 {
		c.Horizon = c.Epoch / 2
	}
	if c.S <= 0 {
		c.S = 0.05
	}
	if c.Knee == nil {
		c.Knee = knee.SlopeThreshold{}
	}
	if c.MinWorkers <= 0 {
		c.MinWorkers = 1
	}
	if c.MinFitPoints < 4 {
		c.MinFitPoints = 8
	}
	return c
}

// Decision reports one scheduling-epoch outcome for observability.
type Decision struct {
	// Step is the training step at decision time.
	Step int
	// Remove directs the engine to evict one worker.
	Remove bool
	// SDelta is the computed s_Δ(t) (NaN-free; only meaningful when a
	// fit was possible).
	SDelta float64
	// Reason explains the outcome ("before-knee", "knee", "fit-pending",
	// "s-below-threshold", "s-above-threshold", "at-min-workers").
	Reason string
}

// Tuner is the scale-in scheduler. Not safe for concurrent use: the
// supervisor owns it.
type Tuner struct {
	cfg    Config
	tracer *trace.Tracer
	track  string

	losses []float64 // observed loss per step (index = step-1)

	kneeFound bool
	kneeStep  int
	refCurve  fit.Fitted
	refDur    time.Duration // d_P

	lastRemovalStep int
	durSinceSum     time.Duration // step-duration sum since last removal
	durSinceCount   int

	totalDur   time.Duration // duration sum since start (for d_P)
	totalSteps int

	lastEpochAt time.Duration
	decisions   []Decision

	// pendingShrink counts workers the control plane has asked the job
	// to give up (RequestShrink) but the tuner has not yet honored.
	pendingShrink int
}

// New returns a tuner for a job that starts with initialWorkers workers.
func New(cfg Config) *Tuner {
	return &Tuner{cfg: cfg.withDefaults()}
}

// Config returns the effective (defaulted) configuration.
func (t *Tuner) Config() Config { return t.cfg }

// SetTracer installs a tracer; every epoch decision is then recorded as
// an instant named after its Reason on the given track (the supervisor
// runs the tuner).
func (t *Tuner) SetTracer(tr *trace.Tracer, track string) {
	t.tracer = tr
	t.track = track
}

// Observe records the global loss and duration of step (1-based). The
// loss is stored as given: the engine feeds the stream it has already
// smoothed for its stop criteria.
func (t *Tuner) Observe(step int, loss float64, stepDur time.Duration) {
	t.losses = append(t.losses, loss)
	t.totalDur += stepDur
	t.totalSteps++
	t.durSinceSum += stepDur
	t.durSinceCount++
}

// SmoothedLosses exposes the observed (caller-smoothed) loss history
// (shared slice; do not mutate).
func (t *Tuner) SmoothedLosses() []float64 { return t.losses }

// KneeStep returns the detected knee step (0, false before detection).
func (t *Tuner) KneeStep() (int, bool) { return t.kneeStep, t.kneeFound }

// ReferenceCurve returns the fitted L_P (valid after the knee).
func (t *Tuner) ReferenceCurve() (fit.Fitted, bool) { return t.refCurve, t.kneeFound }

// Decisions returns the log of epoch decisions.
func (t *Tuner) Decisions() []Decision { return t.decisions }

// avgDur computes d_p: mean step duration since the last removal.
func (t *Tuner) avgDur() time.Duration {
	if t.durSinceCount == 0 {
		return 0
	}
	return t.durSinceSum / time.Duration(t.durSinceCount)
}

// NotifyRemoval informs the tuner that the engine honoured a removal at
// the given step, resetting the post-removal observation window.
func (t *Tuner) NotifyRemoval(step int) {
	t.lastRemovalStep = step
	t.durSinceSum = 0
	t.durSinceCount = 0
}

// tryKnee runs knee detection on the observed losses and, on first
// success, fits the reference curve L_P and records d_P. It reports
// whether the knee is (now) found. Idempotent once found.
func (t *Tuner) tryKnee() bool {
	if t.kneeFound {
		return true
	}
	idx, ok := t.cfg.Knee.Detect(t.losses)
	if !ok {
		return false
	}
	// Fit the reference curve on the full history collected so far
	// ("uses the history of loss values at this time", §4.2).
	ts := make([]float64, len(t.losses))
	for i := range ts {
		ts[i] = float64(i + 1)
	}
	ref, err := fit.FitCurve(fit.ReferenceCurve{}, ts, t.losses, fit.FitOptions{})
	if err != nil {
		return false
	}
	t.kneeFound = true
	t.kneeStep = idx + 1
	t.refCurve = ref
	if t.totalSteps > 0 {
		t.refDur = t.totalDur / time.Duration(t.totalSteps)
	}
	return true
}

// RequestShrink records a control-plane request for the job to give up
// n workers — the multi-tenant admission scheduler's lever for shedding
// load off a contended shared platform. Requests accumulate until
// DecideShrink resolves them.
func (t *Tuner) RequestShrink(n int) {
	if n > 0 {
		t.pendingShrink += n
	}
}

// PendingShrink reports the not-yet-honored shrink-request balance.
func (t *Tuner) PendingShrink() int { return t.pendingShrink }

// DecideShrink resolves at most one pending shrink request at virtual
// time now, with the current training step and worker count. The guards
// mirror the auto-tuner's own protocol: a request is honored only after
// the loss-curve knee (scaling in before it impairs convergence, §4.2)
// and never below the MinWorkers floor — requests that hit the floor
// are dropped, since the floor makes them unsatisfiable for the rest of
// the run. Unlike Decide it is not epoch-gated: the control plane
// already paced the request. The engine must call NotifyRemoval when it
// honours a Remove decision.
func (t *Tuner) DecideShrink(now time.Duration, step, workers int) Decision {
	var d Decision
	switch {
	case t.pendingShrink == 0:
		d = Decision{Step: step, Reason: "no-shrink-pending"}
	case !t.tryKnee():
		d = Decision{Step: step, Reason: "before-knee"}
	case workers <= t.cfg.MinWorkers:
		t.pendingShrink = 0
		d = Decision{Step: step, Reason: "at-min-workers"}
	default:
		t.pendingShrink--
		d = Decision{Step: step, Remove: true, Reason: "pool-shrink"}
	}
	t.decisions = append(t.decisions, d)
	if t.tracer.Enabled() {
		t.tracer.InstantOn(t.track, trace.CatSched, d.Reason, now,
			trace.Int("step", d.Step), trace.Float("s_delta", d.SDelta))
	}
	return d
}

// Decide runs one scheduling epoch at virtual time now, with the current
// training step and worker count. The engine must call NotifyRemoval when
// it honours a Remove decision.
func (t *Tuner) Decide(now time.Duration, step, workers int) Decision {
	if now-t.lastEpochAt < t.cfg.Epoch {
		return Decision{Step: step, Reason: "epoch-pending"}
	}
	t.lastEpochAt = now

	d := t.decide(step, workers)
	t.decisions = append(t.decisions, d)
	if t.tracer.Enabled() {
		t.tracer.InstantOn(t.track, trace.CatSched, d.Reason, now,
			trace.Int("step", d.Step), trace.Float("s_delta", d.SDelta))
	}
	return d
}

func (t *Tuner) decide(step, workers int) Decision {
	if workers <= t.cfg.MinWorkers {
		return Decision{Step: step, Reason: "at-min-workers"}
	}

	// Phase 0: knee detection. The first removal happens at the knee
	// (§4.2: "After estimation of these quantities, the scheduler
	// removes the worker with the lowest-quality replica").
	if !t.kneeFound {
		if !t.tryKnee() {
			return Decision{Step: step, Reason: "before-knee"}
		}
		return Decision{Step: step, Remove: true, Reason: "knee"}
	}

	// Estimation phase: re-fit ℓ_p on losses since the last removal.
	start := t.lastRemovalStep // 1-based step of removal; losses after it
	if start < 0 {
		start = 0
	}
	if len(t.losses)-start < t.cfg.MinFitPoints {
		return Decision{Step: step, Reason: "fit-pending"}
	}
	ts := make([]float64, 0, len(t.losses)-start)
	ys := make([]float64, 0, len(t.losses)-start)
	for i := start; i < len(t.losses); i++ {
		ts = append(ts, float64(i+1))
		ys = append(ys, t.losses[i])
	}
	cur, err := fit.FitCurve(fit.SlowCurve{}, ts, ys, fit.FitOptions{})
	if err != nil {
		return Decision{Step: step, Reason: "fit-pending"}
	}

	// Decision phase: Eq. 1.
	dP, dp := t.refDur, t.avgDur()
	if dP <= 0 || dp <= 0 {
		return Decision{Step: step, Reason: "fit-pending"}
	}
	refSteps := float64(step) + float64(t.cfg.Horizon/dP)
	curSteps := float64(step) + float64(t.cfg.Horizon/dp)
	lRef := t.refCurve.Eval(refSteps)
	lCur := cur.Eval(curSteps)
	if lRef == 0 {
		return Decision{Step: step, Reason: "fit-pending"}
	}
	// Relative degradation of the current pool vs the reference (see the
	// package comment for the sign convention).
	s := (lCur - lRef) / lRef

	if s < t.cfg.S {
		return Decision{Step: step, Remove: true, SDelta: s, Reason: "s-below-threshold"}
	}
	return Decision{Step: step, SDelta: s, Reason: "s-above-threshold"}
}
