package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"mlless/internal/faas"
	"mlless/internal/faults"
	"mlless/internal/model"
	"mlless/internal/sparse"
	"mlless/internal/trace"
	"mlless/internal/xrand"
)

// relaunchMargin is how close to the FaaS execution limit a function may
// get before the engine checkpoints and re-launches it (§3.1: "pause
// execution when the 10-minute timeout is close, checkpoint its internal
// state to storage and re-launch it").
const relaunchMargin = 30 * time.Second

// Invocation retry policy: transiently failed invocations (injected by
// the fault layer) back off exponentially in virtual time, starting at
// invokeRetryBase and giving up after maxInvokeAttempts.
const (
	invokeRetryBase   = 100 * time.Millisecond
	maxInvokeAttempts = 8
)

// Quota-rejected invocations (faas.ErrTooManyConcurrent) are also
// retryable — under shared per-tenant quotas hitting the cap is a
// steady-state event, not a failure. They back off from a larger base
// (capacity frees on job-completion timescales, not network ones) with
// a deterministic per-function jitter so concurrent admits
// desynchronize instead of stampeding the freed slot together.
const quotaRetryBase = 250 * time.Millisecond

// quotaBackoff returns the virtual wait before retry attempt of a
// quota-rejected invocation: exponential in the attempt, plus up to
// +50% jitter drawn from a stream seeded by the function name — a pure
// function of (name, attempt), so runs stay byte-reproducible.
func quotaBackoff(name string, attempt int) time.Duration {
	base := quotaRetryBase << (attempt - 1)
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := xrand.New(h.Sum64() + uint64(attempt)*0x9e3779b97f4a7c15)
	return base + time.Duration(rng.Float64()*float64(base)/2)
}

// maxConsecutiveDeaths bounds back-to-back reclamations of one worker
// inside a single step, so a pathological reclaim probability turns
// into an error instead of an unbounded recovery loop.
const maxConsecutiveDeaths = 10

// relaunchHorizon is how much execution budget must remain for a
// function to skip checkpointing: a fixed safety margin plus room for
// two steps like the last one (steps cannot be split mid-flight).
func (e *engine) relaunchHorizon() time.Duration {
	return relaunchMargin + 2*e.lastStepDur
}

// invokeAt launches a function at virtual time at, retrying attempts
// that fail transiently: injected invocation faults and exhausted
// concurrency quotas (faas.ErrTooManyConcurrent) both back off
// exponentially in virtual time, so the successful attempt (and every
// charge after it) starts later. The backoff is recorded as restart
// overhead — it surfaces on the bill inside the recovery-overhead memo
// like every other recovery wait. Other errors and attempts beyond
// maxInvokeAttempts are returned as-is.
func (e *engine) invokeAt(name string, memoryMiB int, at time.Duration, cold bool) (*faas.Instance, error) {
	backoff := invokeRetryBase
	for attempt := 1; ; attempt++ {
		var inst *faas.Instance
		var err error
		if cold {
			inst, err = e.cl.Platform.InvokeCold(name, memoryMiB, at)
		} else {
			inst, err = e.cl.Platform.Invoke(name, memoryMiB, at)
		}
		if err == nil {
			return inst, nil
		}
		if attempt == maxInvokeAttempts {
			return nil, err
		}
		var wait time.Duration
		switch {
		case errors.Is(err, faults.ErrInjected):
			wait = backoff
			backoff *= 2
		case errors.Is(err, faas.ErrTooManyConcurrent):
			wait = quotaBackoff(name, attempt)
		default:
			return nil, err
		}
		e.recMu.Lock()
		e.recovery.InvokeRetries++
		e.recovery.RestartTime += wait
		e.recMu.Unlock()
		at += wait
	}
}

// dead reports whether the instance's container has been reclaimed by
// the provider: its clock has caught up with the reclaim instant, so
// any work charged past that point is void.
func dead(inst *faas.Instance) bool {
	return inst.ReclaimAt > 0 && inst.Clock.Now() >= inst.ReclaimAt
}

// recoverWorker replaces a worker whose container the provider
// reclaimed. The dead run is billed up to the reclaim point, a
// replacement boots cold (the platform just withdrew capacity, so no
// warm container is assumed — which also keeps concurrent recoveries
// off the bounded warm pool), and the replica state (parameters plus
// optimizer moments) is re-downloaded. Boot and download land in
// Recovery.RestartTime.
func (e *engine) recoverWorker(w *Worker) error {
	deadAt := w.inst.ReclaimAt
	mem := w.inst.MemoryMiB
	if err := e.cl.Platform.Reclaim(w.inst, &e.meter); err != nil {
		return fmt.Errorf("core: reclaim worker %d: %w", w.id, err)
	}
	w.gen++
	inst, err := e.invokeAt(e.workerName(w.id, w.gen), mem, deadAt, true)
	if err != nil {
		return fmt.Errorf("core: recover worker %d: %w", w.id, err)
	}
	w.inst = inst
	e.traceBoot(inst, workerTrack(w.id))
	// Parameters plus optimizer state (~2x params, as in maybeRelaunch);
	// charged, not materialized — the in-memory replica already holds
	// the restored state.
	state := sparse.DenseEncodedSize(w.model.NumParams())
	w.inst.Clock.Advance(2 * e.cl.Redis.TransferTime(state))
	e.recMu.Lock()
	e.recovery.WorkerDeaths++
	e.recovery.RestartTime += w.inst.Clock.Now() - deadAt
	e.recMu.Unlock()
	if e.tr.Enabled() {
		// Two views of the same interval: the FaaS lifecycle sees a
		// relaunch caused by reclamation; the fault layer sees recovery
		// work (re-download) it must account to the overhead bill.
		e.tr.SpanOn(workerTrack(w.id), trace.CatFaaS, "relaunch", deadAt, w.inst.Clock.Now(),
			trace.Int("gen", w.gen), trace.Str("cause", "reclaim"))
		e.tr.SpanOn(workerTrack(w.id), trace.CatFault, "recover", deadAt, w.inst.Clock.Now(),
			trace.Int("gen", w.gen))
	}
	return nil
}

// redoSegmentOnDeath is the mid-step recovery loop: while the worker's
// container is dead, recover onto a fresh one and recharge the time the
// segment took. The math is deterministic and the replica state is
// restored from the checkpoint, so only time — not results — must be
// redone. segStart is when the segment began on the then-current
// instance; the redone work lands in Recovery.RecomputeTime.
func (e *engine) redoSegmentOnDeath(w *Worker, segStart time.Duration, what string) error {
	for deaths := 0; dead(w.inst); {
		if deaths++; deaths > maxConsecutiveDeaths {
			return fmt.Errorf("core: worker %d: %d consecutive reclamations during %s: %w",
				w.id, deaths, what, faults.ErrInjected)
		}
		redo := w.inst.Clock.Now() - segStart
		if err := e.recoverWorker(w); err != nil {
			return err
		}
		segStart = w.inst.Clock.Now()
		w.inst.Clock.Advance(redo)
		e.recMu.Lock()
		e.recovery.RecomputeTime += redo
		e.recMu.Unlock()
		if e.tr.Enabled() {
			e.tr.SpanOn(workerTrack(w.id), trace.CatFault, "recompute",
				segStart, w.inst.Clock.Now(), trace.Str("what", what))
		}
	}
	return nil
}

// checkLimit enforces the platform execution cap (§2) on a worker that
// has finished step. Relaunching normally keeps instances clear of it; a
// single step too long to fit the remaining budget cannot be split, so
// it surfaces as faas.ErrOverLimit instead of silently overrunning. A
// dead instance is skipped: it is replaced with a fresh one at its next
// pass.
func (e *engine) checkLimit(w *Worker, step int) error {
	if dead(w.inst) {
		return nil
	}
	if err := w.inst.CheckLimit(e.cl.Platform.Config()); err != nil {
		return fmt.Errorf("core: step %d: %w", step, err)
	}
	return nil
}

// maybeRelaunch checkpoints and re-launches a worker approaching the
// platform's execution limit, charging the checkpoint transfer, the
// start latency and the state download.
func (e *engine) maybeRelaunch(w *Worker) error {
	cfg := e.cl.Platform.Config()
	if cfg.MaxDuration <= 0 || w.inst.Elapsed() < cfg.MaxDuration-e.relaunchHorizon() {
		return nil
	}
	// Checkpoint: model parameters plus optimizer state (≈2x params for
	// Adam's two moments; charged, not materialized).
	ckptStart := w.inst.Clock.Now()
	params := denseOf(w.model)
	wb := getWireBuf()
	payload := params.EncodeTo(wb.b[:0])
	e.cl.Redis.Set(&w.inst.Clock, e.ckptKey(w.id), payload)
	payloadLen := len(payload)
	putWireBuf(wb, payload)
	w.inst.Clock.Advance(e.cl.Redis.TransferTime(payloadLen)) // optimizer state
	resumeAt := w.inst.Clock.Now()
	mem := w.inst.MemoryMiB
	if err := e.cl.Platform.TerminateInto(w.inst, &e.meter); err != nil {
		return fmt.Errorf("core: relaunch terminate worker %d: %w", w.id, err)
	}
	w.gen++
	inst, err := e.invokeAt(e.workerName(w.id, w.gen), mem, resumeAt, false)
	if err != nil {
		return fmt.Errorf("core: relaunch worker %d: %w", w.id, err)
	}
	w.inst = inst
	e.traceBoot(inst, workerTrack(w.id))
	// Download the checkpoint into the fresh instance, then delete it:
	// consumed checkpoints must not accumulate in the store.
	if _, ok := e.cl.Redis.Get(&w.inst.Clock, e.ckptKey(w.id)); !ok {
		return fmt.Errorf("core: relaunch worker %d: checkpoint vanished", w.id)
	}
	w.inst.Clock.Advance(e.cl.Redis.TransferTime(payloadLen)) // optimizer state
	e.cl.Redis.Delete(&w.inst.Clock, e.ckptKey(w.id))
	e.recMu.Lock()
	e.relaunches++
	e.recMu.Unlock()
	if e.tr.Enabled() {
		e.tr.SpanOn(workerTrack(w.id), trace.CatFaaS, "relaunch",
			ckptStart, w.inst.Clock.Now(), trace.Int("gen", w.gen), trace.Str("cause", "limit"))
	}
	return nil
}

// denseOf returns the model's parameter vector.
func denseOf(m model.Model) sparse.Dense { return m.Params() }

// maybeRelaunchSup does for the supervisor what maybeRelaunch does for
// workers. Its checkpoint is small: the loss history and tuner state.
func (e *engine) maybeRelaunchSup() error {
	cfg := e.cl.Platform.Config()
	if cfg.MaxDuration <= 0 || e.sup.Elapsed() < cfg.MaxDuration-e.relaunchHorizon() {
		return nil
	}
	ckptStart := e.sup.Clock.Now()
	ckpt := make([]byte, 24*len(e.history)+1024)
	e.cl.Redis.Set(&e.sup.Clock, e.supCkptKey(), ckpt)
	resumeAt := e.sup.Clock.Now()
	mem := e.sup.MemoryMiB
	if err := e.cl.Platform.TerminateInto(e.sup, &e.meter); err != nil {
		return fmt.Errorf("core: relaunch supervisor: %w", err)
	}
	e.supGen++
	sup, err := e.invokeAt(e.supName(), mem, resumeAt, false)
	if err != nil {
		return fmt.Errorf("core: relaunch supervisor: %w", err)
	}
	e.sup = sup
	e.traceBoot(sup, supTrack)
	if _, ok := e.cl.Redis.Get(&e.sup.Clock, e.supCkptKey()); !ok {
		return fmt.Errorf("core: relaunch supervisor: checkpoint vanished")
	}
	e.cl.Redis.Delete(&e.sup.Clock, e.supCkptKey())
	e.recMu.Lock()
	e.relaunches++
	e.recMu.Unlock()
	if e.tr.Enabled() {
		e.tr.SpanOn(supTrack, trace.CatFaaS, "relaunch",
			ckptStart, e.sup.Clock.Now(), trace.Int("gen", e.supGen), trace.Str("cause", "limit"))
	}
	return nil
}

// recoverSup is recoverWorker for the supervisor. Its state (loss
// history and tuner counters) is small, so the restart cost is the boot
// plus a checkpoint-sized read.
func (e *engine) recoverSup() error {
	deadAt := e.sup.ReclaimAt
	mem := e.sup.MemoryMiB
	if err := e.cl.Platform.Reclaim(e.sup, &e.meter); err != nil {
		return fmt.Errorf("core: reclaim supervisor: %w", err)
	}
	e.supGen++
	sup, err := e.invokeAt(e.supName(), mem, deadAt, true)
	if err != nil {
		return fmt.Errorf("core: recover supervisor: %w", err)
	}
	e.sup = sup
	e.traceBoot(sup, supTrack)
	e.sup.Clock.Advance(e.cl.Redis.TransferTime(24*len(e.history) + 1024))
	e.recMu.Lock()
	e.recovery.WorkerDeaths++
	e.recovery.RestartTime += e.sup.Clock.Now() - deadAt
	e.recMu.Unlock()
	if e.tr.Enabled() {
		e.tr.SpanOn(supTrack, trace.CatFaaS, "relaunch", deadAt, e.sup.Clock.Now(),
			trace.Int("gen", e.supGen), trace.Str("cause", "reclaim"))
		e.tr.SpanOn(supTrack, trace.CatFault, "recover", deadAt, e.sup.Clock.Now(),
			trace.Int("gen", e.supGen))
	}
	return nil
}
