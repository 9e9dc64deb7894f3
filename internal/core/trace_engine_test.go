package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/sched"
	"mlless/internal/trace"
)

// tracedFaultedRun executes the aggressive-fault PMF job with a fresh
// cluster and tracer and returns both.
func tracedFaultedRun(t *testing.T) (*Result, *trace.Tracer) {
	t.Helper()
	cl, job := testPMFJob(t, 4, Spec{MaxSteps: 120})
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

func TestTraceDeterministicUnderFaults(t *testing.T) {
	// The determinism guarantee (DESIGN.md §7): identical seeds yield
	// byte-identical trace files even on a run full of reclamations,
	// relaunches and recoveries, where goroutine interleaving varies.
	_, trA := tracedFaultedRun(t)
	resB, trB := tracedFaultedRun(t)

	var bufA, bufB bytes.Buffer
	if err := trace.WriteChrome(&bufA, trA.Events()); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChrome(&bufB, trB.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("trace files differ across identically-seeded runs")
	}
	if !reflect.DeepEqual(trA.Events(), trB.Events()) {
		t.Fatal("Events() differ across identically-seeded runs with equal trace files")
	}

	// The faulted run's trace must tell the §4.2/fault story: worker
	// deaths ("reclaim" billing instants), their recovery spans, the
	// per-step engine phases and the boot spans of replacements.
	counts := make(map[string]int)
	for _, ev := range trB.Events() {
		counts[ev.Cat+"/"+ev.Name]++
	}
	for _, want := range []string{
		"faas/reclaim", "faas/relaunch", "fault/recover", "faas/cold-start",
		"engine/fetch", "engine/compute", "engine/publish", "engine/pull", "engine/barrier",
		"kv/set", "kv/mget", "obj/get", "mq/publish",
	} {
		if counts[want] == 0 {
			t.Errorf("no %q events in a faulted traced run (have %v)", want, counts)
		}
	}
	if resB.Recovery.WorkerDeaths > 0 && counts["fault/recover"] < resB.Recovery.WorkerDeaths {
		t.Errorf("recover spans %d < worker deaths %d",
			counts["fault/recover"], resB.Recovery.WorkerDeaths)
	}

	// Traced runs surface the per-step decomposition on the Result.
	if len(resB.StepPhases) == 0 {
		t.Fatal("traced run produced no StepPhases")
	}
	if resB.StepPhases[0].Compute <= 0 || resB.StepPhases[0].Fetch <= 0 {
		t.Fatalf("empty phase decomposition: %+v", resB.StepPhases[0])
	}
}

func TestTracingDoesNotPerturbTheRun(t *testing.T) {
	run := func(traced bool) *Result {
		cl, job := testPMFJob(t, 4, Spec{TargetLoss: 0.85, MaxSteps: 300})
		job.Spec.Faults = chaosSpec(9)
		if traced {
			job.Trace = trace.New()
		}
		res, err := Run(cl, job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, traced := run(false), run(true)
	if plain.Steps != traced.Steps || plain.ExecTime != traced.ExecTime ||
		plain.FinalLoss != traced.FinalLoss || plain.Cost.Total != traced.Cost.Total {
		t.Fatalf("tracing perturbed the run: (%d, %v, %v, %v) vs (%d, %v, %v, %v)",
			plain.Steps, plain.ExecTime, plain.FinalLoss, plain.Cost.Total,
			traced.Steps, traced.ExecTime, traced.FinalLoss, traced.Cost.Total)
	}
	if len(plain.StepPhases) != 0 {
		t.Fatal("untraced run exported StepPhases")
	}
	if len(traced.StepPhases) == 0 {
		t.Fatal("traced run exported no StepPhases")
	}
}

func TestTraceRecordsSchedulerEvictions(t *testing.T) {
	cl, job := testPMFJob(t, 8, Spec{
		Sync: consistency.ISP, Significance: 0.5,
		TargetLoss: 0.73, MaxSteps: 4000,
		AutoTune: true,
		Sched:    sched.Config{Epoch: 300 * time.Millisecond, S: 0.1},
	})
	job.Trace = trace.New()
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removals) == 0 {
		t.Fatal("run exercised no evictions")
	}
	var evicts, decisions, merges int
	for _, ev := range job.Trace.Events() {
		if ev.Cat != trace.CatSched && !(ev.Cat == trace.CatEngine && ev.Name == "merge") {
			continue
		}
		switch ev.Name {
		case "evict":
			evicts++
			if ev.Track != "supervisor" {
				t.Fatalf("eviction instant on track %q", ev.Track)
			}
			if _, ok := ev.ArgInt("worker"); !ok {
				t.Fatalf("eviction instant lacks worker arg: %+v", ev)
			}
		case "merge":
			merges++
		default:
			decisions++
		}
	}
	if evicts != len(res.Removals) {
		t.Fatalf("evict instants %d != removals %d", evicts, len(res.Removals))
	}
	if decisions == 0 {
		t.Fatal("no auto-tuner decision instants recorded")
	}
	if merges == 0 {
		t.Fatal("no eviction-replica merge spans recorded")
	}
}
