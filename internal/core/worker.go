package core

import (
	"fmt"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/exchange"
	"mlless/internal/faas"
	"mlless/internal/model"
	"mlless/internal/optimizer"
	"mlless/internal/shard"
	"mlless/internal/sparse"
	"mlless/internal/trace"
)

// Worker is one serverless worker: its function instance, its local
// model replica, optimizer and significance filter (§3.1).
type Worker struct {
	id     int
	inst   *faas.Instance
	model  model.Model
	opt    optimizer.Optimizer
	filter *consistency.Filter

	lastLoss     float64
	pendingMerge string // eviction-replica key to average in next step
	alive        bool
	gen          int // relaunch/recovery generation; distinguishes billing labels

	// Per-step scratch, reused across passes so the steady-state loop
	// allocates nothing (DESIGN.md §10). ctx is the state-machine pass
	// context; pull carries the lock-step pull half into the exchange
	// strategy; pullKeys/pullVals back the async pull path. Within a
	// phase exactly one driver goroutine runs this worker's states (see
	// driver.go), so the scratch needs no locking.
	ctx       stepCtx
	pull      exchange.PullCtx
	pullKeys  []string
	pullVals  [][]byte
	announced []exchange.Announcement
}

// stepState enumerates the per-step state machine every worker runs:
// recover → merge → fetch → compute → publish → pull. The lock-step
// schedules split one pass into a compute half (recover..publish) and a
// pull half gated by the barrier; the async schedule runs pull at the
// head of the next pass instead, driven by announcements.
type stepState int

const (
	stateRecover stepState = iota
	stateMerge
	stateFetch
	stateCompute
	statePublish
	statePull
)

// stepCtx carries one worker's pass through the state machine: the step
// being executed, the recovery policy of the leading recover state, the
// pull window, and the intermediate values the states hand each other.
type stepCtx struct {
	step    int
	pActive int

	// rejoinAt is where a worker recovered at the head of the pass
	// resumes (the pool's last barrier under lock-step; zero means "where
	// recovery left it"). relaunch additionally runs the
	// execution-limit checkpoint/re-launch check.
	rejoinAt time.Duration
	relaunch bool

	// Pull window (statePull): peer updates in (fromStep, toStep] from
	// every worker in active. readyAt is the pool-wide instant at which
	// every reduction-round write is visible (collective exchanges only).
	fromStep, toStep int
	active           []*Worker
	readyAt          time.Duration

	segStart     time.Duration
	view         shard.BatchView
	loss         float64
	upd          *sparse.Vector
	computeStart time.Duration
}

// runStates drives a worker through the given states in order.
func (e *engine) runStates(w *Worker, c *stepCtx, states ...stepState) error {
	for _, s := range states {
		var err error
		switch s {
		case stateRecover:
			err = e.stepRecover(w, c)
		case stateMerge:
			err = e.stepMerge(w, c)
		case stateFetch:
			err = e.stepFetch(w, c)
		case stateCompute:
			err = e.stepCompute(w, c)
		case statePublish:
			err = e.stepPublish(w, c)
		case statePull:
			err = e.stepPull(w, c)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// stepRecover replaces a worker whose container died between passes, so
// no work is charged to a dead instance. Under lock-step the replacement
// rejoins at the barrier the pool last crossed (c.rejoinAt); a step
// output already published is durable, so nothing is redone. When
// c.relaunch is set it also checkpoints and re-launches a worker
// approaching the platform's execution limit.
func (e *engine) stepRecover(w *Worker, c *stepCtx) error {
	if dead(w.inst) {
		if err := e.recoverWorker(w); err != nil {
			return err
		}
		w.inst.Clock.AdvanceTo(c.rejoinAt)
	}
	if c.relaunch {
		if err := e.maybeRelaunch(w); err != nil {
			return err
		}
	}
	c.segStart = w.inst.Clock.Now()
	return nil
}

// stepMerge reintegrates an evicted peer's replica (§4.2, eviction
// policy).
func (e *engine) stepMerge(w *Worker, c *stepCtx) error {
	if w.pendingMerge == "" {
		return nil
	}
	clk := &w.inst.Clock
	mergeStart := clk.Now()
	if buf, ok := e.cl.Redis.Get(clk, w.pendingMerge); ok {
		replica, err := sparse.DecodeDense(buf)
		if err != nil {
			return fmt.Errorf("core: worker %d: decode eviction replica: %w", w.id, err)
		}
		w.model.Params().Average(replica)
		e.chargeCompute(w, 2*float64(len(replica)))
	}
	w.pendingMerge = ""
	if e.tr.Enabled() {
		e.tr.SpanOn(workerTrack(w.id), trace.CatEngine, "merge",
			mergeStart, clk.Now(), trace.Int("step", c.step))
	}
	return nil
}

// stepFetch pulls this step's mini-batch from object storage (§3.2).
func (e *engine) stepFetch(w *Worker, c *stepCtx) error {
	clk := &w.inst.Clock
	fetchStart := clk.Now()
	batchIdx := e.plan.BatchFor(w.id, c.step)
	view, err := e.shards.Fetch(clk, batchIdx)
	if err != nil {
		return fmt.Errorf("core: worker %d step %d: %w", w.id, c.step, err)
	}
	c.view = view
	if e.tr.Enabled() {
		e.tr.SpanOn(workerTrack(w.id), trace.CatEngine, "fetch",
			fetchStart, clk.Now(), trace.Int("step", c.step), trace.Int("batch", batchIdx))
	}
	return nil
}

// stepCompute runs the local loss and gradient in one pass (real math,
// virtual time; the charge is still the loss's plus the gradient's),
// redoes the segment if the container died mid-compute, and applies the
// pool-averaged optimizer update to the local replica.
func (e *engine) stepCompute(w *Worker, c *stepCtx) error {
	clk := &w.inst.Clock
	c.computeStart = clk.Now()
	loss, grad := w.model.LossGradientView(c.view)
	c.loss = loss
	e.chargeCompute(w, 1.5*w.model.GradientWork(c.view.Len()))

	// The provider may have reclaimed the container mid-segment: the
	// work charged past the reclaim point died with it and is redone on
	// a replacement. The tail below (optimizer, filter, publish) is
	// treated as atomic — once the update is published the step's output
	// is durable, and a death there surfaces at the next phase boundary
	// with nothing left to redo.
	if err := e.redoSegmentOnDeath(w, c.segStart, fmt.Sprintf("step %d compute", c.step)); err != nil {
		return err
	}

	// Optimizer transform, averaged across the active pool: the global
	// update is the mean of local updates (§3.2, "local gradients are
	// averaged to obtain a global gradient update").
	u := w.opt.Step(c.step, grad)
	u.Scale(1 / float64(c.pActive))
	w.model.ApplyUpdate(u)
	e.chargeCompute(w, 2*float64(u.Len()))
	c.upd = u
	return nil
}

// stepPublish filters the update for significance, hands the significant
// part to the exchange strategy (the parameter server parks it in the KV
// store; collectives stage it for reduction), announces its availability
// and reports the loss.
func (e *engine) stepPublish(w *Worker, c *stepCtx) error {
	sig := w.filter.Add(c.step, c.upd, w.model.Params())
	e.chargeCompute(w, 2*float64(sig.Len()))
	clk := &w.inst.Clock
	publishStart := clk.Now()
	if e.tr.Enabled() {
		// The compute span covers gradient, optimizer and filter work —
		// and, on a reclaimed container, the recovery in between, which
		// the overlapping fault spans itemize.
		e.tr.SpanOn(workerTrack(w.id), trace.CatEngine, "compute",
			c.computeStart, publishStart, trace.Int("step", c.step))
	}
	// The payload and both control messages stage through one pooled
	// wire buffer: the exchange medium copies on write and the broker
	// copies on Publish, so the buffer is reusable the moment each call
	// returns. The filter owns sig until its next Add, which is after
	// the pull half — so a collective exchange may retain it as the
	// worker's own contribution to subtract at pull time.
	var ids []int
	if e.xchg.Collective() {
		w.pull.ActiveIDs = activeIDs(w.pull.ActiveIDs, c.active)
		ids = w.pull.ActiveIDs
		w.pull.OwnSig = sig
	}
	wb := getWireBuf()
	payload, err := e.xchg.Publish(clk, w.id, c.step, sig, ids, wb.b[:0])
	if err != nil {
		putWireBuf(wb, payload)
		return fmt.Errorf("core: worker %d: publish: %w", w.id, err)
	}
	payloadLen := len(payload)

	var ann []byte
	if e.job.Spec.Sync == consistency.Async {
		ann = asyncAnnounce{Worker: uint32(w.id), Step: uint32(c.step),
			Bytes: uint32(payloadLen), At: clk.Now()}.appendTo(payload[:0])
	} else {
		ann = announce{Worker: uint32(w.id), Step: uint32(c.step), Bytes: uint32(payloadLen)}.appendTo(payload[:0])
	}
	if err := e.cl.Broker.PublishFanout(clk, e.annExchange(), ann); err != nil {
		putWireBuf(wb, ann)
		return fmt.Errorf("core: worker %d: announce: %w", w.id, err)
	}
	report := lossReport{Worker: uint32(w.id), Step: uint32(c.step), Loss: c.loss,
		UpdateBytes: uint32(payloadLen)}.appendTo(ann[:0])
	err = e.cl.Broker.Publish(clk, e.lossQueue(), report)
	putWireBuf(wb, report)
	if err != nil {
		return fmt.Errorf("core: worker %d: loss report: %w", w.id, err)
	}
	if e.tr.Enabled() {
		e.tr.SpanOn(workerTrack(w.id), trace.CatEngine, "publish",
			publishStart, clk.Now(), trace.Int("step", c.step), trace.Int("bytes", payloadLen))
	}
	w.lastLoss = c.loss
	return nil
}

// stepPull is a worker's pull-and-merge half under lock-step: fetch
// every peer's published update from the KV store and apply it (§3.2:
// "each worker independently of the others pulls from external storage
// all the local updates, and aggregates them"). Under SSP (Staleness >
// 1) a sync point pulls every step in (fromStep, toStep]; under per-step
// BSP/ISP the window is a single step.
func (e *engine) stepPull(w *Worker, c *stepCtx) error {
	clk := &w.inst.Clock
	segStart := c.segStart

	// Drain availability announcements; they identify exactly which keys
	// the peers have published this window.
	announced := w.announced[:0]
	msgs := e.cl.Broker.ConsumeAll(clk, e.annQueue(w.id))
	for _, m := range msgs {
		a, err := decodeAnnounce(m)
		if err != nil {
			return fmt.Errorf("core: worker %d: %w", w.id, err)
		}
		announced = append(announced, exchange.Announcement{Step: int(a.Step), Worker: int(a.Worker)})
	}
	w.announced = announced

	// Hand the pull to the exchange strategy: the parameter server
	// batch-reads the window's update keys and streams each encoded
	// update straight into the replica's dense parameters; collectives
	// wait for the reduced total and apply it instead.
	p := &w.pull
	p.Worker = w.id
	p.Clock = clk
	p.FromStep = c.fromStep
	p.Step = c.toStep
	p.ActiveIDs = activeIDs(p.ActiveIDs, c.active)
	p.Params = w.model.Params()
	p.ReadyAt = c.readyAt
	p.Announced = announced
	applied, err := e.xchg.Pull(p)
	if err != nil {
		return fmt.Errorf("core: worker %d sync at step %d: %w", w.id, c.toStep, err)
	}
	// Deserialize-and-add work: ~4 effective ops per pulled coordinate.
	e.chargeCompute(w, 4*float64(applied))
	if e.tr.Enabled() {
		e.tr.SpanOn(workerTrack(w.id), trace.CatEngine, "pull",
			segStart, w.inst.Clock.Now(), trace.Int("step", c.toStep))
	}
	// A death mid-pull loses the fetched-but-unapplied updates; the
	// replacement redoes the pull (same data, time recharged).
	return e.redoSegmentOnDeath(w, segStart, fmt.Sprintf("sync at step %d", c.toStep))
}
