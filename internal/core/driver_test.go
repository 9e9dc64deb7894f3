package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"mlless/internal/faas"
	"mlless/internal/faults"
	"mlless/internal/trace"
)

// runWithDriver builds a fresh cluster+job, runs it under drv (nil: the
// engine's own parallel driver) with tracing on, and returns the result
// plus the rendered trace bytes.
func runWithDriver(t *testing.T, build func(t *testing.T) (*Cluster, Job), drv driver) (*Result, []byte) {
	t.Helper()
	cl, job := build(t)
	job.drv = drv
	job.Trace = trace.New()
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, job.Trace.Events()); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

func TestDriverDifferential(t *testing.T) {
	// The headline guarantee of the parallel execution core: for every
	// schedule, seed and fault mix, the parallel driver produces traces,
	// loss histories and bills byte-identical to the sequential driver.
	schedules := []struct {
		name string
		spec Spec
	}{
		{"bsp", Spec{MaxSteps: 60}},
		{"ssp-3", Spec{MaxSteps: 60, Staleness: 3}},
		{"async-k3", asyncSpec(Spec{MaxSteps: 60}, 3)},
	}
	mixes := []struct {
		name   string
		faults func(seed uint64) faults.Spec
	}{
		{"no-faults", func(uint64) faults.Spec { return faults.Spec{} }},
		{"chaos", chaosSpec},
	}
	for _, sched := range schedules {
		for _, mix := range mixes {
			for _, seed := range []uint64{3, 11} {
				name := fmt.Sprintf("%s/%s/seed-%d", sched.name, mix.name, seed)
				t.Run(name, func(t *testing.T) {
					build := func(t *testing.T) (*Cluster, Job) {
						cl, job := testPMFJob(t, 4, sched.spec)
						job.Spec.Faults = mix.faults(seed)
						return cl, job
					}
					resSeq, traceSeq := runWithDriver(t, build, seqDriver{})
					resPar, tracePar := runWithDriver(t, build, nil)

					if !bytes.Equal(traceSeq, tracePar) {
						t.Error("trace files differ between seq and par drivers")
					}
					if !reflect.DeepEqual(resSeq.History, resPar.History) {
						t.Error("loss histories differ between seq and par drivers")
					}
					if resSeq.Steps != resPar.Steps || resSeq.ExecTime != resPar.ExecTime ||
						resSeq.FinalLoss != resPar.FinalLoss {
						t.Errorf("results differ: seq steps=%d exec=%v loss=%v, par steps=%d exec=%v loss=%v",
							resSeq.Steps, resSeq.ExecTime, resSeq.FinalLoss,
							resPar.Steps, resPar.ExecTime, resPar.FinalLoss)
					}
					if resSeq.Cost.Total != resPar.Cost.Total {
						t.Errorf("bills differ: seq $%v, par $%v", resSeq.Cost.Total, resPar.Cost.Total)
					}
				})
			}
		}
	}
}

func TestCannotInteractPredicate(t *testing.T) {
	// canInteract must agree with the protocol: a step-s pass pulls peer
	// updates through step s-1, so worker A (about to run sa) observes
	// worker B's current publish iff sb <= sa-1, and vice versa.
	wouldPull := func(puller, publisher int) bool { return publisher <= puller-1 }
	for sa := 1; sa <= 6; sa++ {
		for sb := 1; sb <= 6; sb++ {
			want := wouldPull(sa, sb) || wouldPull(sb, sa)
			if got := canInteract(sa, sb); got != want {
				t.Errorf("canInteract(%d, %d) = %v, want %v", sa, sb, got, want)
			}
		}
	}
}

// lookaheadWorker builds a bare worker at a given virtual time for
// partitioner tests; no platform invocation is needed.
func lookaheadWorker(id int, at time.Duration) *Worker {
	inst := &faas.Instance{}
	inst.Clock.AdvanceTo(at)
	return &Worker{id: id, inst: inst, alive: true}
}

func groupIDs(group []*Worker) []int {
	ids := make([]int, len(group))
	for i, w := range group {
		ids[i] = w.id
	}
	return ids
}

func TestNextAsyncGroup(t *testing.T) {
	mkStates := func(done ...int) []*asyncState {
		states := make([]*asyncState, len(done))
		for i, d := range done {
			states[i] = &asyncState{done: d}
		}
		return states
	}
	workers := []*Worker{
		lookaheadWorker(0, 50),
		lookaheadWorker(1, 10),
		lookaheadWorker(2, 30),
		lookaheadWorker(3, 10),
	}

	// Pivot is the smallest (clock, id) eligible worker: ids 1 and 3 tie
	// on the clock, so id 1 anchors. Its next step (3) selects the
	// cohort {0, 1, 3} (worker 2 is about to run step 2, which CAN
	// interact with step 3), ordered by (clock, id).
	group := nextAsyncGroup(workers, mkStates(2, 2, 1, 2), 100, 2, nil)
	if got, want := groupIDs(group), []int{1, 3, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("group ids = %v, want %v", got, want)
	}

	// The (clock, id) order is a property of the workers, not of slice
	// position: any permutation of the input yields the same group.
	shuffled := []*Worker{workers[3], workers[0], workers[2], workers[1]}
	group = nextAsyncGroup(shuffled, mkStates(2, 2, 1, 2), 100, 2, group)
	if got, want := groupIDs(group), []int{1, 3, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("group ids after reorder = %v, want %v", got, want)
	}

	// The staleness cap gates eligibility: with K=1 only the slowest
	// worker may run, whatever the clocks say.
	group = nextAsyncGroup(workers, mkStates(1, 1, 0, 1), 100, 1, group)
	if got, want := groupIDs(group), []int{2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("K=1 group ids = %v, want %v", got, want)
	}

	// A run-ahead worker past the cap is excluded even with the smallest
	// clock.
	group = nextAsyncGroup(workers[:2], mkStates(3, 0), 100, 2, group)
	if got, want := groupIDs(group), []int{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("capped group ids = %v, want %v", got, want)
	}

	// Everyone done: empty group ends the run.
	group = nextAsyncGroup(workers[:2], mkStates(5, 5), 5, 2, group)
	if len(group) != 0 {
		t.Fatalf("finished pool produced group %v", groupIDs(group))
	}
}

func TestClockIDBefore(t *testing.T) {
	cases := []struct {
		at   time.Duration
		ai   int
		bt   time.Duration
		bi   int
		want bool
	}{
		{10, 5, 20, 1, true},  // earlier clock wins regardless of id
		{20, 1, 10, 5, false}, // later clock loses regardless of id
		{15, 2, 15, 7, true},  // clock tie: smaller id wins
		{15, 7, 15, 2, false}, // clock tie: larger id loses
		{15, 3, 15, 3, false}, // identical: strictly-before is false
	}
	for _, c := range cases {
		if got := clockIDBefore(c.at, c.ai, c.bt, c.bi); got != c.want {
			t.Errorf("clockIDBefore(%v,%d, %v,%d) = %v, want %v", c.at, c.ai, c.bt, c.bi, got, c.want)
		}
	}
}

func TestAggregate(t *testing.T) {
	// Each round publishes loss reports, then aggregates one step. The
	// supervisor averages exactly the expected reports in worker-id
	// order, keeps reports for later steps until their turn, and rejects
	// every protocol violation instead of averaging it in.
	type round struct {
		publish      []lossReport
		step, expect int
		want         float64 // average loss when err is empty
		err          string
	}
	rep := func(worker, step uint32, loss float64) lossReport {
		return lossReport{Worker: worker, Step: step, Loss: loss, UpdateBytes: 8}
	}
	for _, tc := range []struct {
		name    string
		workers int
		rounds  []round
	}{
		// A duplicate report used to pass the count check while silently
		// overwriting a slot and averaging in a zero-valued lossReport.
		{"duplicate", 2, []round{{publish: []lossReport{rep(0, 1, 0.5), rep(0, 1, 0.5)}, step: 1, expect: 2,
			err: "duplicate loss report for step 1 from worker 0"}}},
		// The same with a non-zero id: the count matches the full pool
		// while worker 2's slot is never filled.
		{"duplicate-worker-1", 3, []round{{publish: []lossReport{rep(0, 1, 0.5), rep(1, 1, 0.5), rep(1, 1, 0.5)}, step: 1, expect: 3,
			err: "duplicate loss report for step 1 from worker 1"}}},
		// An id past the pool used to panic on the slot index.
		{"out-of-range", 2, []round{{publish: []lossReport{rep(0, 1, 0.5), rep(7, 1, 0.5)}, step: 1, expect: 2,
			err: "out-of-range worker 7 (pool size 2)"}}},
		{"short", 2, []round{{publish: []lossReport{rep(0, 1, 0.5)}, step: 1, expect: 2,
			err: "got 1 loss reports for step 1, want 2"}}},
		// After an eviction the live ids have gaps: slots are indexed by
		// pool size, so id 2 of a 3-worker pool counts when 2 report.
		{"gap after eviction", 3, []round{{publish: []lossReport{rep(2, 1, 0.75), rep(0, 1, 0.25)}, step: 1, expect: 2,
			want: 0.5}}},
		// A run-ahead worker's step-2 report, drained while aggregating
		// step 1, waits and counts at step 2.
		{"run-ahead report", 2, []round{
			{publish: []lossReport{rep(0, 1, 0.5), rep(0, 2, 1), rep(1, 1, 0.25)}, step: 1, expect: 2, want: 0.375},
			{publish: []lossReport{rep(1, 2, 2)}, step: 2, expect: 2, want: 1.5},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, e := pullTestEngine(t, tc.workers)
			for _, r := range tc.rounds {
				for _, m := range r.publish {
					if err := cl.Broker.Publish(&e.sup.Clock, e.lossQueue(), m.encode()); err != nil {
						t.Fatal(err)
					}
				}
				avg, updateBytes, err := e.aggregate(r.step, r.expect)
				if r.err != "" {
					if err == nil || !strings.Contains(err.Error(), r.err) {
						t.Fatalf("step %d: err = %v, want %q", r.step, err, r.err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: %v", r.step, err)
				}
				if avg != r.want || updateBytes != int64(8*r.expect) {
					t.Fatalf("step %d: average %v over %d update bytes, want %v over %d",
						r.step, avg, updateBytes, r.want, 8*r.expect)
				}
			}
		})
	}
}

func TestSupervisorReclamationCountIsExact(t *testing.T) {
	// After maxConsecutiveDeaths (10) recoveries the guard trips on the
	// 11th observed death; the error used to report deaths-1 = 10.
	cl := NewCluster()
	cl.Platform.SetFaults(faults.New(faults.Spec{
		Seed: 5, ReclaimProb: 1, ReclaimMeanLife: time.Millisecond,
	}))
	defer cl.Platform.SetFaults(nil)
	sup, err := cl.Platform.Invoke("jt/supervisor", 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := &engine{cl: cl, id: "jt", sup: sup}
	err = e.syncSupervisor(time.Hour, 7)
	if err == nil {
		t.Fatal("supervisor survived permanent reclamation")
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error does not wrap faults.ErrInjected: %v", err)
	}
	want := fmt.Sprintf("%d consecutive reclamations", maxConsecutiveDeaths+1)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error understates the death count, want %q in: %v", want, err)
	}
}

func TestWorkerReclamationCountIsExact(t *testing.T) {
	// The same off-by-one lived in the worker redo loop
	// (redoSegmentOnDeath). Drive it directly: a dead segment much
	// longer than the sampled container lifetime (floored at 1s by the
	// fault layer) is recharged onto every replacement, so each
	// replacement is dead again the moment its recompute finishes and
	// the loop must give up after exactly maxConsecutiveDeaths retries.
	cl, e := pullTestEngine(t, 1)
	cl.Platform.SetFaults(faults.New(faults.Spec{
		Seed: 1, ReclaimProb: 1, ReclaimMeanLife: time.Millisecond,
	}))
	w := e.workers[0]
	w.inst.Clock.AdvanceTo(time.Hour)
	w.inst.ReclaimAt = 30 * time.Minute
	err := e.redoSegmentOnDeath(w, 0, "test segment")
	if err == nil {
		t.Fatal("redo loop survived permanent immediate reclamation")
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error does not wrap faults.ErrInjected: %v", err)
	}
	want := fmt.Sprintf("%d consecutive reclamations", maxConsecutiveDeaths+1)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error understates the death count, want %q in: %v", want, err)
	}
}
