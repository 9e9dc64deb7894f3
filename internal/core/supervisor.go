package core

import (
	"fmt"
	"math"
	"time"

	"mlless/internal/faults"
	"mlless/internal/trace"
)

// The supervisor half of the engine: advancing the supervisor function
// to each step's reconciliation point, aggregating the workers' loss
// reports, recording the loss history, deciding when to stop, and
// executing the auto-tuner's evictions.

// syncSupervisor advances the supervisor's clock to at (a step's barrier
// under lock-step; the step-completion instant under async), replacing a
// reclaimed container and checkpointing ahead of the execution limit.
// step labels errors.
func (e *engine) syncSupervisor(at time.Duration, step int) error {
	e.sup.Clock.AdvanceTo(at)
	for deaths := 0; dead(e.sup); {
		if deaths++; deaths > maxConsecutiveDeaths {
			return fmt.Errorf("core: supervisor: %d consecutive reclamations: %w",
				deaths, faults.ErrInjected)
		}
		if err := e.recoverSup(); err != nil {
			return err
		}
		e.sup.Clock.AdvanceTo(at)
	}
	if err := e.maybeRelaunchSup(); err != nil {
		return err
	}
	if err := e.sup.CheckLimit(e.cl.Platform.Config()); err != nil {
		return fmt.Errorf("core: step %d: %w", step, err)
	}
	return nil
}

// reconcile is the supervisor's step tail under both schedules. It
// folds step's reconciliation instant at (the barrier under lock-step,
// the step's last publish under async) into the step-duration estimate,
// advances the supervisor there, averages the pActive workers' loss
// reports, records the step and applies the stop criteria. It returns
// the smoothed loss and whether the run stops; the stop's verdict lands
// in e.converged and e.diverged.
func (e *engine) reconcile(step int, at time.Duration, pActive int) (smoothed float64, stop bool, err error) {
	stepDur := e.advanceStep(at)
	if err := e.syncSupervisor(at, step); err != nil {
		return 0, false, err
	}
	raw, updateBytes, err := e.aggregate(step, pActive)
	if err != nil {
		return 0, false, err
	}
	if e.tr.Enabled() {
		e.tr.SpanOn(supTrack, trace.CatEngine, "aggregate",
			at, e.sup.Clock.Now(), trace.Int("step", step))
	}
	smoothed = e.recordStep(step, at, raw, updateBytes, pActive, stepDur)
	stop, e.converged, e.diverged = StopCheck(e.job.Spec.TargetLoss, raw, smoothed)
	return smoothed, stop, nil
}

// aggregate drains the loss queue into e.reports, where reports for
// later steps wait their turn (the staleness cap lets async workers
// report ahead), and averages step's
// reports in worker-id order (deterministic float summation). Exactly
// expect workers must report, each once: out-of-range ids and duplicate
// reports are protocol violations surfaced as errors, never silently
// folded into the average. Slots are indexed by pool size, not by
// expect, because after an eviction the live ids have gaps.
func (e *engine) aggregate(step, expect int) (avgLoss float64, updateBytes int64, err error) {
	e.lossMsgs = e.cl.Broker.ConsumeAllSwap(&e.sup.Clock, e.lossQueue(), e.lossMsgs)
	for _, m := range e.lossMsgs {
		r, err := decodeLossReport(m)
		if err != nil {
			return 0, 0, err
		}
		e.reports = append(e.reports, r)
	}
	n := len(e.workers)
	if len(e.reported) != n {
		e.byWorker = make([]lossReport, n)
		e.reported = make([]bool, n)
	}
	clear(e.reported)
	got := 0
	later := e.reports[:0]
	for _, r := range e.reports {
		if int(r.Step) != step {
			later = append(later, r)
			continue
		}
		id := int(r.Worker)
		if id >= n {
			return 0, 0, fmt.Errorf("core: supervisor: loss report for step %d from out-of-range worker %d (pool size %d)",
				step, id, n)
		}
		if e.reported[id] {
			return 0, 0, fmt.Errorf("core: supervisor: duplicate loss report for step %d from worker %d",
				step, id)
		}
		e.reported[id] = true
		e.byWorker[id] = r
		got++
	}
	e.reports = later
	if got != expect {
		return 0, 0, fmt.Errorf("core: supervisor got %d loss reports for step %d, want %d",
			got, step, expect)
	}
	sum := 0.0
	for id, r := range e.byWorker {
		if e.reported[id] {
			sum += r.Loss
			updateBytes += int64(r.UpdateBytes)
		}
	}
	return sum / float64(expect), updateBytes, nil
}

// recordStep smooths the step's raw global loss and appends it to the
// history, returning the smoothed value the stop criteria and the
// auto-tuner observe.
func (e *engine) recordStep(step int, at time.Duration, raw float64, updateBytes int64, workers int, stepDur time.Duration) float64 {
	smoothed := e.smoother.Update(raw)
	e.totalUpdateBytes += updateBytes
	e.history = append(e.history, LossPoint{
		Step: step, Time: at, Loss: smoothed, RawLoss: raw,
		Workers: workers, UpdateBytes: updateBytes, Duration: stepDur,
	})
	return smoothed
}

// advanceStep folds a step's reconciliation instant into the engine's
// step-duration estimate (which sizes the relaunch horizon). Under SSP a
// recovered worker can rejoin behind the previous maximum, making the
// raw difference negative; the horizon estimate must stay non-negative.
func (e *engine) advanceStep(at time.Duration) time.Duration {
	stepDur := at - e.prevBarrier
	if stepDur < 0 {
		stepDur = 0
	}
	e.prevBarrier = at
	e.lastStepDur = stepDur
	return stepDur
}

// LossAlpha is the EWMA factor of the smoothed global loss stream that
// the stop criteria and the auto-tuner read. The baseline trainers share
// it, so every system smooths the same way.
const LossAlpha = 0.25

// StopCheck applies the engine's stop criteria to one step: a
// non-finite raw loss diverges the run, and a smoothed loss at target
// (Spec.TargetLoss; 0 disables it) converges it. The baseline trainers
// share it, so every system stops where MLLess would.
func StopCheck(target, raw, smoothed float64) (stop, converged, diverged bool) {
	if math.IsNaN(raw) || math.IsInf(raw, 0) {
		return true, false, true
	}
	if target > 0 && smoothed <= target {
		return true, true, false
	}
	return false, false, false
}

// evictOne removes the worker with the lowest-quality replica (highest
// recent loss). Under ISP the leaving worker parks its replica in the KV
// store for the survivors to average in (§4.2, eviction policy).
func (e *engine) evictOne(step int, now time.Duration, active []*Worker) error {
	victim := active[0]
	for _, w := range active[1:] {
		if w.lastLoss > victim.lastLoss {
			victim = w
		}
	}
	if victim.filter.BaseThreshold() > 0 && !e.job.Spec.NoEvictionMerge {
		e.cl.Redis.Set(&victim.inst.Clock, e.evictKey(victim.id), victim.model.Params().Encode())
		for _, w := range active {
			if w.id != victim.id {
				w.pendingMerge = e.evictKey(victim.id)
			}
		}
		// The replica key expires once every survivor has merged it (at
		// the end of the next phase A).
		e.evictExpire = append(e.evictExpire, e.evictKey(victim.id))
	}
	// A victim whose container died between the barrier and the eviction
	// order still parks its replica (the engine holds the state; only
	// billing differs, capped at the reclaim point).
	if dead(victim.inst) {
		if err := e.cl.Platform.Reclaim(victim.inst, &e.meter); err != nil {
			return fmt.Errorf("core: evict worker %d: %w", victim.id, err)
		}
	} else if err := e.cl.Platform.TerminateInto(victim.inst, &e.meter); err != nil {
		return fmt.Errorf("core: evict worker %d: %w", victim.id, err)
	}
	e.cl.Broker.Unbind(e.annExchange(), e.annQueue(victim.id))
	e.cl.Broker.DeleteQueue(e.annQueue(victim.id))
	victim.alive = false
	e.removals = append(e.removals, Removal{
		Step: step, Time: now, Worker: victim.id, WorkersLeft: len(active) - 1,
	})
	if e.tr.Enabled() {
		e.tr.InstantOn(supTrack, trace.CatSched, "evict", now,
			trace.Int("step", step), trace.Int("worker", victim.id),
			trace.Int("workers_left", len(active)-1))
	}
	return nil
}
