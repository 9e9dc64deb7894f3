package core

import (
	"fmt"
	"time"

	"mlless/internal/trace"
)

// The event-driven schedule of the journal version of MLLess
// (arXiv 2206.05786): no global barrier exists. Each worker advances on
// its own virtual clock, publishing its update and immediately starting
// the next step; at the head of every step it pulls whichever peer
// updates its announcement queue says are available, waiting only for
// their publish instants. Progress is bounded by the staleness cap: a
// worker may start step s only while s <= min(completed)+K, so
// replicas never drift more than K steps apart. With K = 1 every
// worker sees exactly the peer updates of step s-1 before computing
// step s — the same update sequence as BSP, applied in the same order,
// so the loss history is identical (pinned by TestAsyncCapOneMatchesBSP)
// while the timeline is free of barrier waits.
//
// The driver below is a deterministic discrete-event simulation over
// lookahead groups (lookahead.go): each round it takes the same-step
// cohort of the eligible worker with the smallest (clock, id) and runs
// every member's pass in two sub-phases — first the read side (recover
// + pull, which only consumes updates committed by earlier rounds),
// then the write side (merge/fetch/compute/publish). Members of a
// cohort provably cannot observe each other's current-step effects, so
// the sub-phases may execute members in any order — one at a time or on
// a goroutine pool (driver.go) — and the run's traces, loss histories
// and bills are byte-identical either way, faults included. Whenever the
// whole pool has completed a step, the supervisor reconciles it exactly
// as lock-step does at a barrier (supervisor.go).

// asyncState is the driver's bookkeeping for one worker.
type asyncState struct {
	// done is the highest step the worker has completed (published).
	done int
	// pubAt records the publish instant of each completed step, until
	// the supervisor aggregates it.
	pubAt map[int]time.Duration
	// avail buffers announcements drained from the worker's queue but
	// not yet pulled: avail[peer][step].
	avail []map[int]asyncAnnounce
	// pulledThrough[j] is the highest step of peer j this worker has
	// applied; announcements arrive in step order, so it only grows.
	pulledThrough []int
}

// runAsync drives the workers barrier-free under the staleness cap
// K = Spec.Staleness.
func runAsync(e *engine) (*Result, error) {
	spec := e.job.Spec
	k := spec.Staleness
	n := len(e.workers)
	states := make([]*asyncState, n)
	for i := range states {
		states[i] = &asyncState{
			pubAt:         make(map[int]time.Duration),
			avail:         make([]map[int]asyncAnnounce, n),
			pulledThrough: make([]int, n),
		}
		for j := range states[i].avail {
			states[i].avail[j] = make(map[int]asyncAnnounce)
		}
	}
	aggregated := 0     // highest step the supervisor has reconciled
	expiredThrough := 0 // highest step whose update keys have been expired
	var group []*Worker // reused across rounds

	for {
		group = nextAsyncGroup(e.workers, states, spec.MaxSteps, k, group)
		if len(group) == 0 {
			break // every worker finished MaxSteps
		}
		if h := asyncGroupHook; h != nil {
			h(len(group))
		}

		// Read side: each member recovers a dead container and pulls the
		// peer updates its announcement queue promises. Everything read —
		// queue contents and update keys — was committed by earlier
		// rounds (a step-s pass pulls through step s-1 only), so members
		// are independent here.
		if err := e.drv.Phase(group, func(w *Worker) error {
			st := states[w.id]
			c := &w.ctx
			*c = stepCtx{step: st.done + 1, pActive: n, relaunch: true}
			if err := e.runStates(w, c, stateRecover); err != nil {
				return err
			}
			return e.asyncPull(w, st, c)
		}); err != nil {
			return nil, err
		}

		// Write side: compute and publish. Nobody reads queues or update
		// keys in this sub-phase; each member writes only its own update
		// key and appends to queues whose internal order is never
		// observable (consumers key by worker and step), so members are
		// independent here too.
		if err := e.drv.Phase(group, func(w *Worker) error {
			return e.runStates(w, &w.ctx, stateMerge, stateFetch, stateCompute, statePublish)
		}); err != nil {
			return nil, err
		}

		// Commit the round in (clock, id) order — the same total order
		// the partitioner anchors on, now over the post-step clocks — so
		// the first execution-cap failure surfaces in that order.
		sortByClockID(group)
		for _, w := range group {
			st := states[w.id]
			step := st.done + 1
			if err := e.checkLimit(w, step); err != nil {
				return nil, err
			}
			st.done = step
			st.pubAt[step] = w.inst.Clock.Now()
		}

		// Reconcile every step the whole pool has now completed: the
		// supervisor advances to the step's last publish instant,
		// aggregates its loss reports and applies the stop criteria.
		stop := false
		for !stop {
			minDone := spec.MaxSteps
			for _, s := range states {
				if s.done < minDone {
					minDone = s.done
				}
			}
			if aggregated >= minDone {
				break
			}
			s := aggregated + 1
			var at time.Duration
			for _, ws := range states {
				if t := ws.pubAt[s]; t > at {
					at = t
				}
				delete(ws.pubAt, s)
			}
			var err error
			if _, stop, err = e.reconcile(s, at, n); err != nil {
				return nil, err
			}
			aggregated = s

			// Once every worker has completed step s, all of them have
			// pulled the pool's updates through s-K (the staleness
			// bound guarantees no later pull reaches that far back), so
			// those keys expire.
			for expiredThrough < s-k {
				expiredThrough++
				e.expireStep(expiredThrough, e.workers)
			}
		}
		if stop {
			break
		}
	}

	// Expire what the run still holds, including updates published by
	// run-ahead workers past the last aggregated step, so a finished job
	// leaves the store empty. The deletes are supervisor work — its
	// end-of-run cleanup — so they are charged on the supervisor clock,
	// keeping kv counters and trace ordering consistent with the run
	// (a zero-valued clock would date them at virtual time 0).
	maxDone := 0
	for _, st := range states {
		if st.done > maxDone {
			maxDone = st.done
		}
	}
	e.xchgIDs = activeIDs(e.xchgIDs, e.workers)
	for s := expiredThrough + 1; s <= maxDone; s++ {
		e.xchg.Expire(&e.sup.Clock, s, e.xchgIDs)
	}

	// Every reconciled step's keys are expired above, so teardown has
	// none left to expire.
	return e.teardown(aggregated)
}

// asyncGroupHook, when non-nil, observes each lookahead group's width.
// Test and benchmark instrumentation only; set it before a run and
// clear it after.
var asyncGroupHook func(width int)

// asyncPull drains the worker's announcement queue and applies every
// announced peer update for steps up to c.step-1, in (peer id, step)
// order. The worker waits (AdvanceTo) for the latest publish instant
// among the updates it takes: an update cannot be read before it was
// written.
func (e *engine) asyncPull(w *Worker, st *asyncState, c *stepCtx) error {
	clk := &w.inst.Clock
	segStart := clk.Now()

	msgs := e.cl.Broker.ConsumeAllSwap(clk, e.annQueue(w.id), w.drained)
	w.drained = msgs
	for _, m := range msgs {
		ann, err := decodeAsyncAnnounce(m)
		if err != nil {
			return fmt.Errorf("core: worker %d: %w", w.id, err)
		}
		if int(ann.Worker) != w.id {
			st.avail[ann.Worker][int(ann.Step)] = ann
		}
	}

	keys := w.pullKeys[:0]
	var waitUntil time.Duration
	for j := range e.workers {
		if j == w.id {
			continue
		}
		for t := st.pulledThrough[j] + 1; t <= c.step-1; t++ {
			ann, ok := st.avail[j][t]
			if !ok {
				break
			}
			keys = append(keys, e.updKey(t, j))
			if ann.At > waitUntil {
				waitUntil = ann.At
			}
			delete(st.avail[j], t)
			st.pulledThrough[j] = t
		}
	}
	w.pullKeys = keys
	clk.AdvanceTo(waitUntil)

	applied := 0
	if len(keys) > 0 {
		vals, n, err := e.xchg.PullKeys(clk, keys, w.pullVals, w.model.Params())
		w.pullVals = vals
		if err != nil {
			return fmt.Errorf("core: worker %d async pull at step %d: %w", w.id, c.step, err)
		}
		applied = n
	}
	e.chargeCompute(w, 4*float64(applied))
	if e.tr.Enabled() {
		e.tr.SpanOn(workerTrack(w.id), trace.CatEngine, "pull",
			segStart, w.inst.Clock.Now(), trace.Int("step", c.step))
	}
	return e.redoSegmentOnDeath(w, segStart, fmt.Sprintf("async pull at step %d", c.step))
}
