package core

import (
	"sort"
	"time"
)

// Conservative time-window lookahead: the partitioning rule that lets
// the driver (driver.go) run several workers at once without changing a
// single byte of the run's output.
//
// The async schedule has no barriers, so "who runs next" matters. The
// engine totally orders workers by (virtual clock, id) and groups the
// eligible ones by the step they are about to run: a step-s pass pulls
// peer updates through step s-1 only, so two workers about to run the
// same step can never observe each other's current-step effects — their
// virtual-time intervals cannot interact — while a worker at a later
// step does pull an earlier-step worker's publish. The group is
// therefore the same-step cohort of the smallest-(clock, id) eligible
// worker, executed in two sub-phases (reads, then writes; see
// async.go), and its members can run in any order or in parallel.
//
// Under lock-step (runLockStep) the phase boundary is the lookahead window:
// every active worker runs the same step between barriers and pulls
// only updates published before the phase, so the whole active set is
// one group and no partitioning is needed.

// clockIDBefore reports whether worker a (clock at, id ai) precedes
// worker b (clock bt, id bi) in the engine's total (clock, id) order.
// The id tie-break is explicit — never an artifact of iteration order —
// because the lookahead partitioner and the drivers' merge step rely on
// this order being a property of the workers, stable under any
// reordering of the slice that holds them.
func clockIDBefore(at time.Duration, ai int, bt time.Duration, bi int) bool {
	if at != bt {
		return at < bt
	}
	return ai < bi
}

// canInteract is the partitioner's "cannot interact" predicate: it
// reports whether two eligible async workers, about to run steps sa and
// sb, could observe each other's effects within those passes. A step-s
// pass reads peer updates through step s-1 only, so equal steps cannot
// interact; unequal steps can — the later worker's pull window contains
// the earlier worker's publish.
func canInteract(sa, sb int) bool { return sa != sb }

// nextAsyncGroup selects the next lookahead group: all eligible workers
// sharing the next step of the eligible worker with the smallest
// (clock, id), sorted by (clock, id). Eligibility is the staleness
// rule: a worker may run step done+1 only while done+1 <= minDone+k and
// done < maxSteps. The slowest worker is always eligible and always
// anchors a group sooner or later, so the schedule cannot stall. An
// empty group means every worker has finished maxSteps.
//
// group is a reusable scratch slice (contents overwritten); states is
// addressed by worker id.
func nextAsyncGroup(workers []*Worker, states []*asyncState, maxSteps, k int, group []*Worker) []*Worker {
	group = group[:0]
	minDone := maxSteps
	for _, st := range states {
		if st.done < minDone {
			minDone = st.done
		}
	}
	eligible := func(st *asyncState) bool {
		return st.done < maxSteps && st.done+1 <= minDone+k
	}

	var pivot *Worker
	for _, w := range workers {
		if !eligible(states[w.id]) {
			continue
		}
		if pivot == nil || clockIDBefore(w.inst.Clock.Now(), w.id, pivot.inst.Clock.Now(), pivot.id) {
			pivot = w
		}
	}
	if pivot == nil {
		return group
	}

	step := states[pivot.id].done + 1
	for _, w := range workers {
		st := states[w.id]
		if eligible(st) && !canInteract(st.done+1, step) {
			group = append(group, w)
		}
	}
	sortByClockID(group)
	return group
}

// sortByClockID orders workers by the engine's total (clock, id) order.
func sortByClockID(ws []*Worker) {
	sort.Slice(ws, func(i, j int) bool {
		return clockIDBefore(ws[i].inst.Clock.Now(), ws[i].id, ws[j].inst.Clock.Now(), ws[j].id)
	})
}
