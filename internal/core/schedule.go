package core

import (
	"fmt"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// Schedule is the step-driving policy: it decides when each worker runs
// the states of its per-step machine and when the supervisor reconciles.
// LockStep keeps the paper's barrier semantics (BSP/ISP/SSP); Async lets
// every worker free-run on its own virtual clock under a staleness cap.
type Schedule interface {
	// Name identifies the schedule in diagnostics.
	Name() string
	// Run drives the engine's workers to completion and assembles the
	// result. The engine is set up (instances launched, queues declared)
	// before Run and torn down by Run via engine.teardown.
	Run(e *engine) (*Result, error)
}

// scheduleFor picks the schedule a spec asks for.
func scheduleFor(spec Spec) Schedule {
	if spec.Sync == consistency.Async {
		return Async{Cap: spec.Staleness}
	}
	return LockStep{}
}

// LockStep is the paper's barrier-driven schedule (§3.1): every step,
// all workers run the compute half of their state machine concurrently,
// then (at sync points) the pull half, then reconcile at a global
// barrier the slowest worker paces. With Staleness > 1 it degrades the
// barrier to every Staleness steps (SSP).
type LockStep struct{}

// Name implements Schedule.
func (LockStep) Name() string { return "lockstep" }

// Run implements Schedule. Each phase hands the whole active set to the
// engine's driver as one lookahead group: between barriers every worker
// runs the same step and reads only state committed before the phase,
// so the phase boundary itself is the lookahead window (lookahead.go)
// and no partitioning is needed.
func (LockStep) Run(e *engine) (*Result, error) {
	spec := e.job.Spec
	converged := false
	diverged := false
	lastSync := 0
	stopper := NewStopCheck(spec)

	for step := 1; step <= spec.MaxSteps; step++ {
		active := e.active()
		pActive := len(active)
		// Under SSP (Staleness > 1) workers run ahead between sync
		// points; pulls and barriers happen every Staleness steps.
		syncStep := spec.Staleness <= 1 || step%spec.Staleness == 0 || step == spec.MaxSteps

		// Eviction replicas published at the previous sync point are
		// merged by every survivor during this compute half; afterwards
		// the keys expire (server-side TTL, no client time).
		expireEvict := e.evictExpire
		e.evictExpire = nil

		if err := e.drv.Phase(active, func(w *Worker) error {
			c := &w.ctx // per-worker scratch; reset for this pass
			*c = stepCtx{step: step, pActive: pActive, rejoinAt: e.prevBarrier, relaunch: true, active: active}
			return e.runStates(w, c, stateRecover, stateMerge, stateFetch, stateCompute, statePublish)
		}); err != nil {
			return nil, err
		}
		if len(expireEvict) > 0 {
			var janitor vclock.Clock
			for _, k := range expireEvict {
				e.cl.Redis.Delete(&janitor, k)
			}
		}

		// Collective exchanges reduce the step's updates between the
		// compute and pull halves: each round is one driver phase whose
		// members only read data written in earlier phases, with the
		// pool-wide readyAt marking when those writes are visible.
		var readyAt time.Duration
		if syncStep && e.xchg.Collective() {
			e.xchgIDs = activeIDs(e.xchgIDs, active)
			ids := e.xchgIDs
			for r := 0; r < e.xchg.Rounds(pActive); r++ {
				readyAt = maxClock(active)
				round := r
				if err := e.drv.Phase(active, func(w *Worker) error {
					c := &w.ctx
					*c = stepCtx{step: step, active: active}
					if err := e.runStates(w, c, stateRecover); err != nil {
						return err
					}
					start := w.inst.Clock.Now()
					if err := e.xchg.RunRound(&w.inst.Clock, w.id, step, round, ids, readyAt); err != nil {
						return fmt.Errorf("core: worker %d reduce round %d at step %d: %w", w.id, round, step, err)
					}
					if e.tr.Enabled() && w.inst.Clock.Now() > start {
						e.tr.SpanOn(workerTrack(w.id), trace.CatEngine, "reduce",
							start, w.inst.Clock.Now(), trace.Int("step", step), trace.Int("round", round))
					}
					return e.redoSegmentOnDeath(w, start, fmt.Sprintf("reduce round %d at step %d", round, step))
				}); err != nil {
					return nil, err
				}
			}
			readyAt = maxClock(active)
		}

		if syncStep {
			if err := e.drv.Phase(active, func(w *Worker) error {
				c := &w.ctx
				*c = stepCtx{step: step, fromStep: lastSync, toStep: step, active: active, readyAt: readyAt}
				return e.runStates(w, c, stateRecover, statePull)
			}); err != nil {
				return nil, err
			}
		}
		// Build the clock list only now: recoveries may have replaced
		// instances (and therefore clocks) during either phase.
		clocks := make([]*vclock.Clock, len(active))
		for i, w := range active {
			clocks[i] = &w.inst.Clock
		}
		var barrier time.Duration
		if syncStep {
			if e.tr.Enabled() {
				// Record each worker's barrier wait before reconciling:
				// the gap to the pool maximum is exactly what Barrier
				// will charge it.
				max := vclock.Max(clocks)
				for i, w := range active {
					e.tr.SpanOn(workerTrack(w.id), trace.CatEngine, "barrier",
						clocks[i].Now(), max, trace.Int("step", step))
				}
			}
			// BSP barrier (§3.1): the slowest worker paces the step.
			barrier = vclock.Barrier(clocks)
			for s := lastSync + 1; s <= step; s++ {
				e.expireStep(s, active)
			}
			lastSync = step
		} else {
			barrier = vclock.Max(clocks)
		}
		stepDur := e.advanceStep(barrier)

		// Enforce the platform execution cap (§2). Relaunching normally
		// keeps instances clear of it; a single step too long to fit the
		// remaining budget cannot be split, so it surfaces as
		// faas.ErrOverLimit instead of silently overrunning.
		cfg := e.cl.Platform.Config()
		for _, w := range active {
			if dead(w.inst) {
				continue // replaced with a fresh instance at the next phase
			}
			if err := w.inst.CheckLimit(cfg); err != nil {
				return nil, fmt.Errorf("core: step %d: %w", step, err)
			}
		}

		// Supervisor: aggregate the loss reports.
		if err := e.syncSupervisor(barrier, step); err != nil {
			return nil, err
		}
		raw, updateBytes, err := e.aggregateReports(pActive)
		if err != nil {
			return nil, err
		}
		if e.tr.Enabled() {
			e.tr.SpanOn(supTrack, trace.CatEngine, "aggregate",
				barrier, e.sup.Clock.Now(), trace.Int("step", step))
		}
		smoothed := e.recordStep(step, barrier, raw, updateBytes, pActive, stepDur)

		var stop bool
		if stop, converged, diverged = stopper.Decide(raw, smoothed, barrier); stop {
			break
		}

		// Scale-in auto-tuner (§4.2) and control-plane shrink requests,
		// both run by the supervisor. Evictions only happen at sync
		// points so no published-but-unpulled update is lost under SSP.
		if e.tuner != nil {
			e.tuner.Observe(step, smoothed, stepDur)
			if syncStep {
				// Shrink directives due by this barrier become pending
				// requests; the tuner honors them under the same guards
				// as its own decisions (post-knee, above MinWorkers).
				for e.shrinkIdx < len(e.shrink) && e.shrink[e.shrinkIdx].At <= barrier {
					e.tuner.RequestShrink(e.shrink[e.shrinkIdx].Workers)
					e.shrinkIdx++
				}
				for e.tuner.PendingShrink() > 0 {
					d := e.tuner.DecideShrink(e.sup.Clock.Now(), step, pActive)
					if !d.Remove {
						break
					}
					if err := e.evictOne(step, barrier, active); err != nil {
						return nil, err
					}
					e.tuner.NotifyRemoval(step)
					active = e.active()
					pActive = len(active)
				}
				if e.job.Spec.AutoTune {
					d := e.tuner.Decide(e.sup.Clock.Now(), step, pActive)
					if d.Remove && pActive > e.tuner.Config().MinWorkers {
						if err := e.evictOne(step, barrier, active); err != nil {
							return nil, err
						}
						e.tuner.NotifyRemoval(step)
					}
				}
			}
		}
	}

	return e.teardown(converged, diverged, lastSync)
}

// maxClock returns the latest instance-clock instant across workers —
// the visibility horizon of everything written in a completed phase.
func maxClock(ws []*Worker) time.Duration {
	var m time.Duration
	for _, w := range ws {
		if now := w.inst.Clock.Now(); now > m {
			m = now
		}
	}
	return m
}
