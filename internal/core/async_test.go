package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/sched"
	"mlless/internal/trace"
)

func asyncSpec(spec Spec, cap int) Spec {
	spec.Sync = consistency.Async
	spec.Staleness = cap
	return spec
}

func TestAsyncCapOneMatchesBSP(t *testing.T) {
	// With staleness cap 1, a worker starting step s has seen exactly the
	// peer updates of step s-1 — the same update sequence BSP's barrier
	// enforces, applied in the same (peer-id) order. The loss history must
	// therefore match BSP step for step, bit for bit, while the timeline
	// sheds its barrier waits.
	clB, jobB := testPMFJob(t, 3, Spec{MaxSteps: 50})
	resB, err := Run(clB, jobB)
	if err != nil {
		t.Fatal(err)
	}
	clA, jobA := testPMFJob(t, 3, asyncSpec(Spec{MaxSteps: 50}, 1))
	resA, err := Run(clA, jobA)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Steps != resB.Steps {
		t.Fatalf("async ran %d steps, BSP %d", resA.Steps, resB.Steps)
	}
	for i := range resB.History {
		b, a := resB.History[i], resA.History[i]
		if a.Step != b.Step || a.RawLoss != b.RawLoss || a.Loss != b.Loss {
			t.Fatalf("history diverges at index %d: async %+v vs BSP %+v", i, a, b)
		}
	}
	if resA.ExecTime > resB.ExecTime {
		t.Fatalf("barrier-free async slower than BSP: %v vs %v", resA.ExecTime, resB.ExecTime)
	}
	if clA.Redis.Len() != 0 {
		t.Fatalf("async run left %d keys in the store", clA.Redis.Len())
	}
}

func TestAsyncConverges(t *testing.T) {
	// Async at cap > 1 must reach the target loss on the seeded PMF job,
	// with and without the ISP significance filter. (Without the filter
	// it follows BSP's update sequence: every round's cohort is the whole
	// pool, so no worker runs ahead; DESIGN.md §9.)
	for _, tc := range []struct {
		name string
		sig  float64
	}{
		{"plain", 0},
		{"with-isp-filter", 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := asyncSpec(Spec{TargetLoss: 0.85, MaxSteps: 400}, 3)
			spec.Significance = tc.sig
			cl, job := testPMFJob(t, 4, spec)
			res, err := Run(cl, job)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("async did not reach loss 0.85 in %d steps (final %v)",
					res.Steps, res.FinalLoss)
			}
			if res.ExecTime <= 0 {
				t.Fatal("non-positive exec time")
			}
			if cl.Redis.Len() != 0 {
				t.Fatalf("converged async run left %d keys in the store", cl.Redis.Len())
			}
		})
	}
}

func TestAsyncStepDurationsNonNegative(t *testing.T) {
	// Async reconciliation instants are the per-step publish maxima, which
	// grow monotonically only per worker — the cross-worker maximum can
	// regress between consecutive steps when a run-ahead worker published
	// early. advanceStep clamps the difference; every recorded duration
	// must come out non-negative.
	cl, job := testPMFJob(t, 4, asyncSpec(Spec{MaxSteps: 80}, 4))
	job.Spec.Faults = chaosSpec(11)
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.History {
		if p.Duration < 0 {
			t.Fatalf("negative step duration at step %d: %v", p.Step, p.Duration)
		}
	}
}

func TestAsyncSurvivesFaults(t *testing.T) {
	cl, job := testPMFJob(t, 4, asyncSpec(Spec{MaxSteps: 150}, 3))
	job.Spec.Faults = chaosSpec(5)
	job.Spec.Faults.ReclaimProb = 0.9
	job.Spec.Faults.ReclaimMeanLife = 3 * time.Second
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 150 {
		t.Fatalf("faulted async run completed %d steps, want 150", res.Steps)
	}
	if res.Recovery.WorkerDeaths == 0 {
		t.Fatalf("no container deaths at ReclaimProb 0.9 (faults: %+v)", res.Faults)
	}
	if res.Recovery.Overhead() <= 0 {
		t.Fatalf("deaths without recovery overhead: %+v", res.Recovery)
	}
	if cl.Redis.Len() != 0 {
		t.Fatalf("faulted async run left %d keys in the store", cl.Redis.Len())
	}
}

func TestAsyncLeavesNoStaleKeys(t *testing.T) {
	// An early TargetLoss stop catches run-ahead workers mid-window: they
	// have published updates past the last aggregated step, which only the
	// post-loop janitor can reach. The store must still end empty.
	cl, job := testPMFJob(t, 4, asyncSpec(Spec{TargetLoss: 0.9, MaxSteps: 2000}, 4))
	job.Trace = trace.New()
	// The staleness cap K = 4 reaches the async loop: a step's update
	// keys expire K steps after it is reconciled, so the live store peaks
	// at K steps' worth of the 4 workers' updates.
	peakKeys := 0
	asyncGroupHook = func(int) { peakKeys = max(peakKeys, cl.Redis.Len()) }
	defer func() { asyncGroupHook = nil }()
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if peakKeys != 4*4 {
		t.Fatalf("live store peaked at %d keys, want 16 (cap 4 x 4 workers)", peakKeys)
	}
	if !res.Converged {
		t.Fatalf("run did not stop on target loss (final %v after %d steps)", res.FinalLoss, res.Steps)
	}
	if res.Steps >= 2000 {
		t.Fatal("run was not an early stop; the test exercises nothing")
	}
	if cl.Redis.Len() != 0 {
		t.Fatalf("early-stopped async run left %d keys in the store", cl.Redis.Len())
	}
	// The janitor's deletes are supervisor work, charged on the
	// supervisor clock: they must show up on its track dated within the
	// run, not at virtual time 0 (a zero-valued clock would date them
	// there) or off the timeline entirely (an unregistered clock would
	// drop and under-charge them).
	janitorDels := 0
	for _, ev := range job.Trace.Events() {
		if ev.Cat == trace.CatKV && ev.Name == "del" && ev.Track == supTrack {
			janitorDels++
			if ev.Start <= 0 {
				t.Fatalf("janitor delete dated at virtual time %v, want > 0", ev.Start)
			}
		}
	}
	if janitorDels == 0 {
		t.Fatal("no janitor deletes on the supervisor track; run-ahead cleanup was uncharged")
	}
}

func TestAsyncDeterministicTraces(t *testing.T) {
	// The determinism guarantee extends to async: the driver is a
	// sequential discrete-event simulation (smallest (clock, id) runs
	// next), so identically-seeded faulted runs yield byte-identical
	// traces even though no barrier ever aligns the workers.
	run := func() (*Result, *trace.Tracer) {
		cl, job := testPMFJob(t, 4, asyncSpec(Spec{MaxSteps: 120}, 3))
		job.Spec.Faults = chaosSpec(3)
		job.Spec.Faults.ReclaimProb = 0.9
		job.Spec.Faults.ReclaimMeanLife = 3 * time.Second
		job.Trace = trace.New()
		res, err := Run(cl, job)
		if err != nil {
			t.Fatal(err)
		}
		return res, job.Trace
	}
	_, trA := run()
	resB, trB := run()

	var bufA, bufB bytes.Buffer
	if err := trace.WriteChrome(&bufA, trA.Events()); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChrome(&bufB, trB.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("async trace files differ across identically-seeded runs")
	}

	counts := make(map[string]int)
	for _, ev := range trB.Events() {
		counts[ev.Cat+"/"+ev.Name]++
	}
	for _, want := range []string{
		"faas/relaunch", "fault/recover",
		"engine/fetch", "engine/compute", "engine/publish", "engine/pull", "engine/aggregate",
	} {
		if counts[want] == 0 {
			t.Errorf("no %q events in a faulted async trace (have %v)", want, counts)
		}
	}
	// No barrier exists under async; a barrier span would mean lock-step
	// code leaked into the event-driven schedule.
	if counts["engine/barrier"] != 0 {
		t.Errorf("async trace contains %d barrier spans", counts["engine/barrier"])
	}
	if resB.Recovery.WorkerDeaths == 0 {
		t.Fatal("faulted async run recorded no deaths")
	}
}

func TestAsyncRejectsAutoTune(t *testing.T) {
	// The scale-in auto-tuner evicts at sync points, which async does not
	// have; the combination must fail validation up front.
	cl, job := testPMFJob(t, 4, asyncSpec(Spec{MaxSteps: 10}, 2))
	job.Spec.AutoTune = true
	job.Spec.Sched = sched.Config{Epoch: 300 * time.Millisecond, S: 0.1}
	if _, err := Run(cl, job); !errors.Is(err, ErrAsyncAutoTune) {
		t.Fatalf("async + auto-tune returned %v, want ErrAsyncAutoTune", err)
	}
}

// historyDigest is the SHA-256 of every field of every history point,
// float64s as bit patterns, so equal digests mean bit-equal histories.
func historyDigest(h []LossPoint) string {
	s := sha256.New()
	for _, p := range h {
		fmt.Fprintf(s, "%d %d %016x %016x %d %d %d\n", p.Step, p.Time,
			math.Float64bits(p.Loss), math.Float64bits(p.RawLoss), p.Workers, p.UpdateBytes, p.Duration)
	}
	return hex.EncodeToString(s.Sum(nil))
}

func TestAsyncSupervisorRelaunchGolden(t *testing.T) {
	// Compute slow enough that workers and the supervisor approach the
	// execution cap and re-launch under async, where the supervisor's
	// relaunch horizon reads the step durations its reconciliation
	// folds in. The values were captured from the engine before its two
	// schedules shared one supervisor tail.
	for _, tc := range []struct {
		cap        int
		relaunches int
		execTime   time.Duration
		costBits   uint64
		history    string
	}{
		{1, 44, 5096456271988, 0x3ff2568f9e826813, "ec4cae6a6e3517e6fa45a2c460b1e446bd7b9c235683a5cdd07d566fd6497eeb"},
		{3, 44, 5096456271988, 0x3ff2568fc4d78c3e, "ec4cae6a6e3517e6fa45a2c460b1e446bd7b9c235683a5cdd07d566fd6497eeb"},
	} {
		t.Run(fmt.Sprintf("K=%d", tc.cap), func(t *testing.T) {
			cl, job := testLRJob(t, 3, asyncSpec(Spec{MaxSteps: 80}, tc.cap))
			cl.Compute = ComputeModel{FlopsPerSecond: 1000}
			res, err := Run(cl, job)
			if err != nil {
				t.Fatal(err)
			}
			supRelaunched := false
			for _, c := range res.Cost.Components {
				supRelaunched = supRelaunched || strings.Contains(c.Name, "/supervisor-r")
			}
			if !supRelaunched {
				t.Fatal("the supervisor never re-launched; the test exercises nothing")
			}
			if res.Relaunches != tc.relaunches {
				t.Errorf("relaunches = %d, want %d", res.Relaunches, tc.relaunches)
			}
			if res.ExecTime != tc.execTime {
				t.Errorf("exec time = %v, want %v", res.ExecTime, tc.execTime)
			}
			if got := math.Float64bits(res.Cost.Total); got != tc.costBits {
				t.Errorf("cost = %v (%#x), want %v", res.Cost.Total, got, math.Float64frombits(tc.costBits))
			}
			if got := historyDigest(res.History); got != tc.history {
				t.Errorf("history digest = %s, want %s", got, tc.history)
			}
		})
	}
}
