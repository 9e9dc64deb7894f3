package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/faas"
	"mlless/internal/faults"
	"mlless/internal/sched"
)

// chaosSpec is a fault mix aggressive enough to exercise every recovery
// path on the small test jobs: transient invocation failures, cold-start
// stragglers, frequent short-lived containers and KV/broker faults.
func chaosSpec(seed uint64) faults.Spec {
	return faults.Spec{
		Seed:            seed,
		InvokeFailProb:  0.15,
		StragglerProb:   0.2,
		ReclaimProb:     0.25,
		ReclaimMeanLife: 20 * time.Second,
		KVFailProb:      0.02,
		KVSlowProb:      0.02,
		MQFailProb:      0.02,
		MQSlowProb:      0.02,
	}
}

func TestTrainingSurvivesFaults(t *testing.T) {
	cl, job := testPMFJob(t, 4, Spec{MaxSteps: 200})
	job.Spec.Faults = chaosSpec(3)
	// Containers die almost surely and quickly, so the run must recover
	// repeatedly to finish.
	job.Spec.Faults.ReclaimProb = 0.9
	job.Spec.Faults.ReclaimMeanLife = 3 * time.Second
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatal("no steps completed")
	}
	if res.Recovery.WorkerDeaths == 0 {
		t.Fatalf("no container deaths at ReclaimProb 0.25 (faults: %+v)", res.Faults)
	}
	if res.Faults.ReclaimsScheduled == 0 {
		t.Fatalf("injector scheduled no reclamations: %+v", res.Faults)
	}
	if res.Recovery.Overhead() <= 0 {
		t.Fatalf("deaths without recovery overhead: %+v", res.Recovery)
	}
	// The recovery overhead must surface on the bill as a memo line, and
	// the memo must be excluded from the total (its function-seconds are
	// already billed inside the worker lines).
	memo := false
	sum := 0.0
	for _, c := range res.Cost.Components {
		if c.Kind == "memo" {
			if c.Name != "recovery-overhead" {
				t.Fatalf("unexpected memo component %q", c.Name)
			}
			if c.Duration != res.Recovery.Overhead() || c.Dollars <= 0 {
				t.Fatalf("memo line inconsistent: %+v vs overhead %v", c, res.Recovery.Overhead())
			}
			memo = true
			continue
		}
		sum += c.Dollars
	}
	if !memo {
		t.Fatal("recovery-overhead memo missing from the bill")
	}
	if math.Abs(sum-res.Cost.Total) > 1e-9 {
		t.Fatalf("memo counted into the total: sum %v vs total %v", sum, res.Cost.Total)
	}
	// A completed run leaves no stale keys, relaunches and recoveries
	// included.
	if n := cl.Redis.Len(); n != 0 {
		t.Fatalf("%d stale KV keys after a faulted run", n)
	}
}

func TestFaultInjectionDeterministic(t *testing.T) {
	run := func() *Result {
		cl, job := testPMFJob(t, 4, Spec{TargetLoss: 0.85, MaxSteps: 300})
		job.Spec.Faults = chaosSpec(9)
		res, err := Run(cl, job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.ExecTime != b.ExecTime || a.FinalLoss != b.FinalLoss {
		t.Fatalf("non-deterministic under faults: (%d, %v, %v) vs (%d, %v, %v)",
			a.Steps, a.ExecTime, a.FinalLoss, b.Steps, b.ExecTime, b.FinalLoss)
	}
	if a.Recovery != b.Recovery {
		t.Fatalf("recovery diverges: %+v vs %+v", a.Recovery, b.Recovery)
	}
	if a.Faults != b.Faults {
		t.Fatalf("fault metrics diverge: %+v vs %+v", a.Faults, b.Faults)
	}
	if a.Relaunches != b.Relaunches || a.Cost.Total != b.Cost.Total {
		t.Fatalf("bill diverges: (%d, %v) vs (%d, %v)",
			a.Relaunches, a.Cost.Total, b.Relaunches, b.Cost.Total)
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("history diverges at step %d", i+1)
		}
	}
}

func TestNoStaleKeysAfterRelaunches(t *testing.T) {
	// Slow compute forces checkpoint/re-launch cycles; every checkpoint
	// key must be consumed and deleted.
	cl, job := testLRJob(t, 2, Spec{MaxSteps: 40})
	cl.Compute = ComputeModel{FlopsPerSecond: 1000}
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relaunches == 0 {
		t.Fatal("run exercised no relaunches")
	}
	if n := cl.Redis.Len(); n != 0 {
		t.Fatalf("%d stale KV keys after %d relaunches", n, res.Relaunches)
	}
}

func TestNoStaleKeysAfterEvictions(t *testing.T) {
	// The auto-tuner parks eviction replicas in the KV store; once every
	// survivor has merged them the keys must expire.
	cl, job := testPMFJob(t, 8, Spec{
		Sync: consistency.ISP, Significance: 0.5,
		TargetLoss: 0.73, MaxSteps: 4000,
		AutoTune: true,
		Sched:    sched.Config{Epoch: 300 * time.Millisecond, S: 0.1},
	})
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removals) == 0 {
		t.Fatal("run exercised no evictions")
	}
	if n := cl.Redis.Len(); n != 0 {
		t.Fatalf("%d stale KV keys after %d evictions", n, len(res.Removals))
	}
}

func TestRelaunchGenerationsGetDistinctLabels(t *testing.T) {
	// Long enough at the slow clock that workers re-launch more than once:
	// the bill must carry one uniquely-named line per invocation
	// (worker-N, worker-N-r1, worker-N-r2, ...), never a shared label.
	cl, job := testLRJob(t, 2, Spec{MaxSteps: 80})
	cl.Compute = ComputeModel{FlopsPerSecond: 1000}
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relaunches < 4 {
		t.Fatalf("want multiple relaunches per worker, got %d", res.Relaunches)
	}
	seen := make(map[string]bool)
	secondGen := false
	for _, c := range res.Cost.Components {
		if c.Kind != "function" {
			continue
		}
		if seen[c.Name] {
			t.Fatalf("billing label %q reused across invocations", c.Name)
		}
		seen[c.Name] = true
		if strings.Contains(c.Name, "-r2") {
			secondGen = true
		}
	}
	if !secondGen {
		t.Fatalf("no second-generation (-r2) label among %d function lines", len(seen))
	}
}

func TestOverLimitSurfacedWhenStepCannotFit(t *testing.T) {
	// A single step too long for the 10-minute cap cannot be split by the
	// checkpoint/re-launch path, so the engine must surface ErrOverLimit
	// instead of silently overrunning.
	cl, job := testLRJob(t, 2, Spec{MaxSteps: 5})
	cl.Compute = ComputeModel{FlopsPerSecond: 1} // one step >> MaxDuration
	_, err := Run(cl, job)
	if !errors.Is(err, faas.ErrOverLimit) {
		t.Fatalf("err = %v, want ErrOverLimit", err)
	}
}

func TestRunClaimsEveryBilledRun(t *testing.T) {
	// The engine bills every invocation through TerminateInto/Reclaim, so
	// every run on the platform's bill is claimed by the job's meter.
	cl, job := testLRJob(t, 3, Spec{MaxSteps: 20})
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Total <= 0 {
		t.Fatal("run billed nothing")
	}
	runs := cl.Platform.BilledRuns()
	if len(runs) == 0 {
		t.Fatal("platform billed no runs")
	}
	for _, run := range runs {
		if !run.Claimed {
			t.Fatalf("run %s left unclaimed by the job meter", run.Name)
		}
	}
}

func TestFaultFreeSpecInjectsNothing(t *testing.T) {
	// The zero FaultSpec must leave the run untouched: identical result
	// to a job that never mentions faults.
	clA, jobA := testPMFJob(t, 3, Spec{MaxSteps: 60})
	clB, jobB := testPMFJob(t, 3, Spec{MaxSteps: 60})
	jobB.Spec.Faults = faults.Spec{Seed: 1234} // seed alone enables nothing
	a, err := Run(clA, jobA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(clB, jobB)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecTime != b.ExecTime || a.FinalLoss != b.FinalLoss || a.Cost.Total != b.Cost.Total {
		t.Fatalf("zero fault spec perturbed the run: (%v, %v, %v) vs (%v, %v, %v)",
			a.ExecTime, a.FinalLoss, a.Cost.Total, b.ExecTime, b.FinalLoss, b.Cost.Total)
	}
	if b.Recovery != (Recovery{}) || b.Faults != (faults.Metrics{}) {
		t.Fatalf("zero fault spec reported activity: %+v, %+v", b.Recovery, b.Faults)
	}
}
