package core

import (
	"fmt"
	"math"
	"sort"
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

// aggregateReports drains the loss queue and averages worker losses in
// worker-id order (deterministic float summation).
func (e *engine) aggregateReports(expect int) (avgLoss float64, updateBytes int64, err error) {
	msgs := e.cl.Broker.ConsumeAll(&e.sup.Clock, e.lossQueue())
	reports := make([]lossReport, 0, len(msgs))
	for _, m := range msgs {
		r, err := decodeLossReport(m)
		if err != nil {
			return 0, 0, err
		}
		reports = append(reports, r)
	}
	if len(reports) != expect {
		return 0, 0, fmt.Errorf("core: supervisor got %d loss reports, want %d", len(reports), expect)
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].Worker < reports[j].Worker })
	sum := 0.0
	for i, r := range reports {
		// A duplicate sender means a protocol violation — and, because
		// the sort key would no longer be unique, a nondeterministic
		// summation order; reject it instead of averaging it in.
		if i > 0 && reports[i-1].Worker == r.Worker {
			return 0, 0, fmt.Errorf("core: supervisor: duplicate loss report from worker %d", r.Worker)
		}
		sum += r.Loss
		updateBytes += int64(r.UpdateBytes)
	}
	return sum / float64(len(reports)), updateBytes, nil
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

// StopCheck evaluates the engine's stop criteria step by step: a
// non-finite raw loss, Spec.TargetLoss, Spec.MaxWallClock and
// Spec.Patience. The baseline trainers share it, so every system stops
// where MLLess would.
type StopCheck struct {
	spec          Spec
	bestLoss      float64
	sinceImproved int
}

// NewStopCheck returns the stop rule for spec.
func NewStopCheck(spec Spec) *StopCheck {
	return &StopCheck{spec: spec, bestLoss: math.Inf(1)}
}

// Decide returns whether the run must stop after this step, and whether
// it stops as converged or diverged.
func (s *StopCheck) Decide(raw, smoothed float64, at time.Duration) (stop, converged, diverged bool) {
	if math.IsNaN(raw) || math.IsInf(raw, 0) {
		return true, false, true
	}
	if s.spec.TargetLoss > 0 && smoothed <= s.spec.TargetLoss {
		return true, true, false
	}
	if s.spec.MaxWallClock > 0 && at >= s.spec.MaxWallClock {
		return true, false, false
	}
	if s.spec.Patience > 0 {
		// Only meaningful progress resets the counter: at least 0.1%
		// relative improvement over the best loss seen.
		const minRelImprovement = 1e-3
		if smoothed < s.bestLoss*(1-minRelImprovement) {
			s.bestLoss = smoothed
			s.sinceImproved = 0
		} else if s.sinceImproved++; s.sinceImproved >= s.spec.Patience {
			return true, true, false
		}
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
		wb := getWireBuf()
		payload := victim.model.Params().EncodeTo(wb.b[:0])
		e.cl.Redis.Set(&victim.inst.Clock, e.evictKey(victim.id), payload)
		putWireBuf(wb, payload)
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
