package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/dataset"
	"mlless/internal/faas"
	"mlless/internal/model"
	"mlless/internal/optimizer"
	"mlless/internal/sched"
	"mlless/internal/vclock"
)

// testLRJob stages a small Criteo-shaped dataset (min-max normalized,
// then shuffled into columnar shards) and returns a cluster and an LR
// job over it.
func testLRJob(t testing.TB, workers int, spec Spec) (*Cluster, Job) {
	t.Helper()
	cl := NewCluster()
	cfg := dataset.CriteoConfig{
		Samples: 6000, NumericFeatures: 5, CategoricalFeatures: 8,
		HashDim: 2000, Cardinality: 100, Separation: 1.6, Seed: 11,
	}
	ds := dataset.GenerateCriteo(cfg)
	dataset.NormalizeInPlace(ds, cfg.NumericFeatures)
	var clk vclock.Clock
	n := dataset.StageShards(ds, cl.COS, &clk, "criteo", 250, dataset.DefaultBatchesPerShard, 1)
	spec.Workers = workers
	return cl, Job{
		Spec:       spec,
		Model:      model.NewLogReg(cfg.HashDim+cfg.NumericFeatures, 0),
		Optimizer:  optimizer.NewAdamDefaults(optimizer.Constant(0.05)),
		Bucket:     "criteo",
		NumBatches: n,
		BatchSize:  250,
	}
}

// testPMFJob stages a small MovieLens-shaped dataset and returns a
// cluster and PMF job.
func testPMFJob(t testing.TB, workers int, spec Spec) (*Cluster, Job) {
	t.Helper()
	return testShardedPMFJob(t, workers, 1, spec)
}

func TestLRConverges(t *testing.T) {
	cl, job := testLRJob(t, 4, Spec{TargetLoss: 0.62, MaxSteps: 400})
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("LR did not reach BCE 0.62 in %d steps (final %v)", res.Steps, res.FinalLoss)
	}
	if res.ExecTime <= 0 {
		t.Fatal("non-positive exec time")
	}
	if res.FinalLoss > 0.62 {
		t.Fatalf("final loss %v above target", res.FinalLoss)
	}
}

func TestPMFConverges(t *testing.T) {
	cl, job := testPMFJob(t, 4, Spec{TargetLoss: 0.80, MaxSteps: 800})
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("PMF did not reach RMSE 0.80 in %d steps (final %v)", res.Steps, res.FinalLoss)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		cl, job := testPMFJob(t, 4, Spec{TargetLoss: 0.85, MaxSteps: 300})
		res, err := Run(cl, job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.ExecTime != b.ExecTime || a.FinalLoss != b.FinalLoss {
		t.Fatalf("non-deterministic: (%d, %v, %v) vs (%d, %v, %v)",
			a.Steps, a.ExecTime, a.FinalLoss, b.Steps, b.ExecTime, b.FinalLoss)
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("history diverges at step %d", i+1)
		}
	}
}

func TestISPWithZeroThresholdEqualsBSP(t *testing.T) {
	// Appendix A corollary at system level: v = 0 ⇒ identical training.
	clA, jobA := testPMFJob(t, 3, Spec{Sync: consistency.BSP, MaxSteps: 60})
	clB, jobB := testPMFJob(t, 3, Spec{Sync: consistency.ISP, Significance: 0, MaxSteps: 60})
	a, err := Run(clA, jobA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(clB, jobB)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("step counts differ: %d vs %d", len(a.History), len(b.History))
	}
	for i := range a.History {
		if a.History[i].RawLoss != b.History[i].RawLoss {
			t.Fatalf("loss diverges at step %d: %v vs %v", i+1, a.History[i].RawLoss, b.History[i].RawLoss)
		}
		if a.History[i].UpdateBytes != b.History[i].UpdateBytes {
			t.Fatalf("update bytes diverge at step %d", i+1)
		}
	}
}

func TestISPReducesTrafficAndTime(t *testing.T) {
	clA, jobA := testPMFJob(t, 6, Spec{Sync: consistency.BSP, MaxSteps: 120})
	clB, jobB := testPMFJob(t, 6, Spec{Sync: consistency.ISP, Significance: 0.7, MaxSteps: 120})
	bsp, err := Run(clA, jobA)
	if err != nil {
		t.Fatal(err)
	}
	isp, err := Run(clB, jobB)
	if err != nil {
		t.Fatal(err)
	}
	if isp.TotalUpdateBytes >= bsp.TotalUpdateBytes {
		t.Fatalf("ISP bytes %d not below BSP bytes %d", isp.TotalUpdateBytes, bsp.TotalUpdateBytes)
	}
	if isp.ExecTime >= bsp.ExecTime {
		t.Fatalf("ISP time %v not below BSP time %v", isp.ExecTime, bsp.ExecTime)
	}
}

func TestISPStillConverges(t *testing.T) {
	cl, job := testPMFJob(t, 6, Spec{
		Sync: consistency.ISP, Significance: 0.7, TargetLoss: 0.80, MaxSteps: 800,
	})
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("ISP run did not converge (final %v after %d steps)", res.FinalLoss, res.Steps)
	}
}

func TestAutoTunerRemovesWorkersAndCutsCost(t *testing.T) {
	spec := Spec{
		Sync: consistency.ISP, Significance: 0.5,
		TargetLoss: 0.73, MaxSteps: 4000,
		AutoTune: true,
		Sched:    sched.Config{Epoch: 300 * time.Millisecond, S: 0.1},
	}
	clT, jobT := testPMFJob(t, 8, spec)
	tuned, err := Run(clT, jobT)
	if err != nil {
		t.Fatal(err)
	}
	specOff := spec
	specOff.AutoTune = false
	clU, jobU := testPMFJob(t, 8, specOff)
	untuned, err := Run(clU, jobU)
	if err != nil {
		t.Fatal(err)
	}
	if !tuned.Converged || !untuned.Converged {
		t.Fatalf("convergence: tuned=%v untuned=%v", tuned.Converged, untuned.Converged)
	}
	if len(tuned.Removals) == 0 {
		t.Fatal("auto-tuner removed no workers")
	}
	last := tuned.History[len(tuned.History)-1]
	if last.Workers >= 8 {
		t.Fatal("worker count never decreased")
	}
	// Perf/$ must improve (the Fig 5 claim).
	perfTuned := 1 / (tuned.ExecTime.Seconds() * tuned.Cost.Total)
	perfUntuned := 1 / (untuned.ExecTime.Seconds() * untuned.Cost.Total)
	if perfTuned <= perfUntuned {
		t.Fatalf("auto-tuner did not improve Perf/$: %v vs %v", perfTuned, perfUntuned)
	}
}

func TestRemovalNeverBelowMinWorkers(t *testing.T) {
	cl, job := testPMFJob(t, 3, Spec{
		Sync: consistency.ISP, Significance: 0.5, MaxSteps: 600,
		AutoTune: true,
		Sched:    sched.Config{Epoch: time.Second, S: 0.5, MinWorkers: 2},
	})
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.History {
		if p.Workers < 2 {
			t.Fatalf("worker count %d fell below MinWorkers", p.Workers)
		}
	}
}

func TestBillingComponents(t *testing.T) {
	cl, job := testLRJob(t, 3, Spec{MaxSteps: 20})
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	var haveWorker, haveSup, haveRedis, haveBroker bool
	for _, c := range res.Cost.Components {
		switch {
		case strings.Contains(c.Name, "worker"):
			haveWorker = true
		case strings.Contains(c.Name, "supervisor"):
			haveSup = true
		case strings.Contains(c.Name, "redis"):
			haveRedis = true
		case strings.Contains(c.Name, "messaging"):
			haveBroker = true
		}
		if c.Dollars < 0 {
			t.Fatalf("negative cost component: %+v", c)
		}
	}
	if !haveWorker || !haveSup || !haveRedis || !haveBroker {
		t.Fatalf("missing bill components: %+v", res.Cost.Components)
	}
	if res.Cost.Total <= 0 {
		t.Fatal("zero total cost")
	}
	// 3 workers + supervisor; no VM booted beyond the two always-on ones.
	if len(res.Cost.Components) != 3+1+2 {
		t.Fatalf("unexpected component count %d", len(res.Cost.Components))
	}
}

func TestMoreWorkersSlowerSteps(t *testing.T) {
	// Fig 2a: training speed decreases (step duration increases) with
	// the number of workers, because per-step communication is O(P).
	durFor := func(workers int) time.Duration {
		cl, job := testPMFJob(t, workers, Spec{MaxSteps: 30})
		res, err := Run(cl, job)
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime / time.Duration(res.Steps)
	}
	d4, d12 := durFor(4), durFor(12)
	if d12 <= d4 {
		t.Fatalf("12-worker steps (%v) not slower than 4-worker steps (%v)", d12, d4)
	}
}

func TestValidation(t *testing.T) {
	cl, job := testLRJob(t, 2, Spec{MaxSteps: 5})
	bad := job
	bad.Spec.Workers = 0
	if _, err := Run(cl, bad); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v", err)
	}
	bad = job
	bad.NumBatches = 0
	if _, err := Run(cl, bad); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v", err)
	}
	bad = job
	bad.Model = nil
	if _, err := Run(cl, bad); err == nil {
		t.Fatal("nil model accepted")
	}
	bad = job
	bad.Optimizer = nil
	if _, err := Run(cl, bad); err == nil {
		t.Fatal("nil optimizer accepted")
	}
}

func TestModelTooLargeRejected(t *testing.T) {
	cl, job := testLRJob(t, 2, Spec{MaxSteps: 5, MemoryMiB: 128})
	// 128 MiB holds ~2.8M params at 48 B budget each; use a giant model.
	job.Model = model.NewPMF(100_000, 100_000, 20, 3.5, 0, 1)
	if _, err := Run(cl, job); !errors.Is(err, ErrModelTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestRelaunchAtFunctionLimit(t *testing.T) {
	// Make compute so slow that workers hit the 10-minute cap quickly.
	cl, job := testLRJob(t, 2, Spec{MaxSteps: 40})
	cl.Compute = ComputeModel{FlopsPerSecond: 1000} // absurdly slow vCPU
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relaunches == 0 {
		t.Fatal("no relaunches despite exceeding the execution limit")
	}
	// Relaunched workers must appear in the bill.
	sawRelaunch := false
	for _, c := range res.Cost.Components {
		if strings.Contains(c.Name, "-r") {
			sawRelaunch = true
		}
		if c.Kind == "function" && c.Duration > faas.DefaultConfig().MaxDuration {
			t.Fatalf("billed invocation %s exceeds the platform limit: %v", c.Name, c.Duration)
		}
	}
	if !sawRelaunch {
		t.Fatal("relaunched instance not billed")
	}
}

func TestHistoryConsistency(t *testing.T) {
	cl, job := testLRJob(t, 3, Spec{MaxSteps: 50})
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != res.Steps {
		t.Fatalf("history %d vs steps %d", len(res.History), res.Steps)
	}
	var prev time.Duration
	for i, p := range res.History {
		if p.Step != i+1 {
			t.Fatalf("step numbering broken at %d", i)
		}
		if p.Time <= prev {
			t.Fatalf("time not increasing at step %d", p.Step)
		}
		if p.Duration != p.Time-prev {
			t.Fatalf("duration mismatch at step %d", p.Step)
		}
		if math.IsNaN(p.Loss) || p.UpdateBytes <= 0 || p.Workers != 3 {
			t.Fatalf("bad point %+v", p)
		}
		prev = p.Time
	}
}

func TestMaxWallClockStops(t *testing.T) {
	cl, job := testPMFJob(t, 4, Spec{MaxSteps: 100000, MaxWallClock: 2 * time.Second})
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("should not report convergence")
	}
	if res.ExecTime > 4*time.Second {
		t.Fatalf("ran to %v despite 2s wall-clock cap", res.ExecTime)
	}
}

func TestTimeToLossAndLossAtTime(t *testing.T) {
	res := &Result{
		ExecTime: 30 * time.Second,
		History: []LossPoint{
			{Step: 1, Time: 10 * time.Second, Loss: 1.0},
			{Step: 2, Time: 20 * time.Second, Loss: 0.8},
			{Step: 3, Time: 30 * time.Second, Loss: 0.6},
		},
	}
	if tt, ok := res.TimeToLoss(0.8); !ok || tt != 20*time.Second {
		t.Fatalf("TimeToLoss = %v, %v", tt, ok)
	}
	if _, ok := res.TimeToLoss(0.1); ok {
		t.Fatal("unreached loss reported reached")
	}
	if l, ok := res.LossAtTime(25 * time.Second); !ok || l != 0.8 {
		t.Fatalf("LossAtTime = %v, %v", l, ok)
	}
	if l, ok := res.LossAtTime(5 * time.Second); ok || l != 1.0 {
		t.Fatalf("LossAtTime before first step = %v, %v", l, ok)
	}
}

func TestCostToLossProrates(t *testing.T) {
	res := &Result{
		ExecTime: 100 * time.Second,
		History: []LossPoint{
			{Step: 1, Time: 50 * time.Second, Loss: 0.9},
		},
	}
	res.Cost.Total = 2.0
	c, ok := res.CostToLoss(0.9)
	if !ok || math.Abs(c-1.0) > 1e-9 {
		t.Fatalf("CostToLoss = %v, %v", c, ok)
	}
	if _, ok := res.CostToLoss(0.1); ok {
		t.Fatal("unreached target costed")
	}
}

func TestSSPStalenessOneEqualsBSP(t *testing.T) {
	clA, jobA := testPMFJob(t, 3, Spec{MaxSteps: 50})
	clB, jobB := testPMFJob(t, 3, Spec{MaxSteps: 50, Staleness: 1})
	a, err := Run(clA, jobA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(clB, jobB)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.History {
		if a.History[i].RawLoss != b.History[i].RawLoss {
			t.Fatalf("staleness=1 diverges from BSP at step %d", i+1)
		}
	}
}

func TestSSPConvergesAndSaves(t *testing.T) {
	clA, jobA := testPMFJob(t, 6, Spec{TargetLoss: 0.80, MaxSteps: 800})
	bsp, err := Run(clA, jobA)
	if err != nil {
		t.Fatal(err)
	}
	clB, jobB := testPMFJob(t, 6, Spec{TargetLoss: 0.80, MaxSteps: 800, Staleness: 4})
	ssp, err := Run(clB, jobB)
	if err != nil {
		t.Fatal(err)
	}
	if !ssp.Converged {
		t.Fatalf("SSP run did not converge (final %v)", ssp.FinalLoss)
	}
	// SSP must not be slower per step on average: fewer sync round trips.
	bspRate := bsp.ExecTime.Seconds() / float64(bsp.Steps)
	sspRate := ssp.ExecTime.Seconds() / float64(ssp.Steps)
	if sspRate > bspRate {
		t.Fatalf("SSP steps (%vs) slower than BSP steps (%vs)", sspRate, bspRate)
	}
}

func TestSSPWithAutoTuner(t *testing.T) {
	cl, job := testPMFJob(t, 8, Spec{
		Sync: consistency.ISP, Significance: 0.5,
		TargetLoss: 0.75, MaxSteps: 3000, Staleness: 3,
		AutoTune: true,
		Sched:    sched.Config{Epoch: 300 * time.Millisecond, S: 0.1},
	})
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("SSP+tuner did not converge (final %v)", res.FinalLoss)
	}
	if len(res.Removals) == 0 {
		t.Fatal("tuner idle under SSP")
	}
}

func TestFilterVariantsStillConverge(t *testing.T) {
	for _, variant := range []consistency.Variant{consistency.Accumulate, consistency.NoDecay} {
		cl, job := testPMFJob(t, 4, Spec{
			Sync: consistency.ISP, Significance: 0.5,
			TargetLoss: 0.80, MaxSteps: 1200, FilterVariant: variant,
		})
		res, err := Run(cl, job)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("variant %v did not converge (final %v)", variant, res.FinalLoss)
		}
	}
}

func TestDropVariantLosesInformation(t *testing.T) {
	// The Drop ablation discards withheld updates; it must ship at most
	// as many bytes as Accumulate and generally converge worse or not
	// at all — here we check the traffic invariant and that it runs.
	clA, jobA := testPMFJob(t, 4, Spec{
		Sync: consistency.ISP, Significance: 0.7, MaxSteps: 150,
		FilterVariant: consistency.Accumulate,
	})
	acc, err := Run(clA, jobA)
	if err != nil {
		t.Fatal(err)
	}
	clB, jobB := testPMFJob(t, 4, Spec{
		Sync: consistency.ISP, Significance: 0.7, MaxSteps: 150,
		FilterVariant: consistency.Drop,
	})
	drop, err := Run(clB, jobB)
	if err != nil {
		t.Fatal(err)
	}
	if drop.TotalUpdateBytes > acc.TotalUpdateBytes {
		t.Fatalf("Drop shipped more bytes (%d) than Accumulate (%d)",
			drop.TotalUpdateBytes, acc.TotalUpdateBytes)
	}
}

func TestPatienceStopsPlateau(t *testing.T) {
	cl, job := testPMFJob(t, 3, Spec{MaxSteps: 2000, Patience: 30})
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps >= 2000 {
		t.Fatal("patience criterion never fired")
	}
	if !res.Converged {
		t.Fatal("patience stop must report convergence")
	}
}
