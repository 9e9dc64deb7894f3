package pywren

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mlless/internal/core"
	"mlless/internal/dataset"
	"mlless/internal/faas"
	"mlless/internal/model"
	"mlless/internal/netmodel"
	"mlless/internal/objstore"
	"mlless/internal/optimizer"
	"mlless/internal/vclock"
)

func stageLR(t *testing.T) (*faas.Platform, *objstore.Store, core.Job) {
	t.Helper()
	cos := objstore.New(netmodel.COSLink())
	cfg := dataset.CriteoConfig{
		Samples: 4000, NumericFeatures: 5, CategoricalFeatures: 8,
		HashDim: 2000, Cardinality: 100, Separation: 1.6, Seed: 17,
	}
	ds := dataset.GenerateCriteo(cfg)
	var clk vclock.Clock
	n := dataset.StageShards(ds, cos, &clk, "criteo", 200, dataset.DefaultBatchesPerShard, 7)
	return faas.NewPlatform(faas.DefaultConfig()), cos, core.Job{
		Spec:       core.Spec{Workers: 4, TargetLoss: 0.64, MaxSteps: 500},
		Model:      model.NewLogReg(cfg.HashDim+cfg.NumericFeatures, 0),
		Optimizer:  optimizer.NewAdamDefaults(optimizer.Constant(0.05)),
		Bucket:     "criteo",
		NumBatches: n,
		BatchSize:  200,
	}
}

func TestConverges(t *testing.T) {
	platform, cos, job := stageLR(t)
	res, err := Train(platform, cos, job, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: final %v after %d steps", res.FinalLoss, res.Steps)
	}
}

func TestMuchSlowerThanCompiled(t *testing.T) {
	// The Python slowdown and per-round COS traffic must make steps far
	// slower than the slowdown-free configuration.
	platform, cos, job := stageLR(t)
	job.Spec.TargetLoss = 0
	job.Spec.MaxSteps = 10
	slow, err := Train(platform, cos, job, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PythonSlowdown = 1
	fast, err := Train(platform, cos, job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.ExecTime <= fast.ExecTime {
		t.Fatalf("slowdown had no effect: %v vs %v", slow.ExecTime, fast.ExecTime)
	}
	if slow.FinalLoss != fast.FinalLoss {
		t.Fatal("systems knobs changed the mathematics")
	}
}

func TestBillsFunctionsOnly(t *testing.T) {
	platform, cos, job := stageLR(t)
	job.Spec.TargetLoss = 0
	job.Spec.MaxSteps = 5
	res, err := Train(platform, cos, job, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sawMap, sawReduce bool
	for _, c := range res.Cost.Components {
		if c.Kind != "function" {
			t.Fatalf("PyWren billed a non-function: %+v", c)
		}
		if strings.Contains(c.Name, "map") {
			sawMap = true
		}
		if strings.Contains(c.Name, "reduce") {
			sawReduce = true
		}
	}
	if !sawMap || !sawReduce {
		t.Fatalf("missing components: %+v", res.Cost.Components)
	}
	if res.Cost.Total <= 0 {
		t.Fatal("zero cost")
	}
}

func TestDeterministic(t *testing.T) {
	platform, cos, job := stageLR(t)
	job.Spec.TargetLoss = 0
	job.Spec.MaxSteps = 20
	a, err := Train(platform, cos, job, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(platform, cos, job, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalLoss != b.FinalLoss || a.ExecTime != b.ExecTime {
		t.Fatal("non-deterministic")
	}
}

func TestConcurrentJobsDoNotCollide(t *testing.T) {
	platform, cos, job := stageLR(t)
	job.Spec.TargetLoss = 0
	job.Spec.MaxSteps = 5
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := Train(platform, cos, job, DefaultConfig())
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestLeavesNoObjects pins that Train deletes its model and update
// objects, after a run and after a run that fails mid-way.
func TestLeavesNoObjects(t *testing.T) {
	platform, cos, job := stageLR(t)
	job.Spec.TargetLoss = 0
	job.Spec.MaxSteps = 5
	if _, err := Train(platform, cos, job, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	bad := job
	bad.NumBatches *= 10 // the plan reaches past the staged batches
	if _, err := Train(platform, cos, bad, DefaultConfig()); err == nil {
		t.Fatal("plan past the staged batches accepted")
	}
	var clk vclock.Clock
	if keys := cos.List(&clk, bucketState, ""); len(keys) != 0 {
		t.Fatalf("objects left behind: %v", keys)
	}
}

func TestValidation(t *testing.T) {
	platform, cos, job := stageLR(t)
	bad := job
	bad.Spec.Workers = 0
	if _, err := Train(platform, cos, bad, DefaultConfig()); err == nil {
		t.Fatal("zero workers accepted")
	}
	bad = job
	bad.Optimizer = nil
	if _, err := Train(platform, cos, bad, DefaultConfig()); err == nil {
		t.Fatal("nil optimizer accepted")
	}
	bad = job
	bad.Spec.Data = "batch"
	if _, err := Train(platform, cos, bad, DefaultConfig()); !errors.Is(err, core.ErrUnknownData) {
		t.Fatalf("removed data tier: got %v, want ErrUnknownData", err)
	}
}

func TestMaxWallClock(t *testing.T) {
	platform, cos, job := stageLR(t)
	job.Spec.TargetLoss = 0
	job.Spec.MaxSteps = 100000
	job.Spec.MaxWallClock = 5 * time.Second
	res, err := Train(platform, cos, job, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime > 15*time.Second {
		t.Fatalf("ran to %v despite 5s cap", res.ExecTime)
	}
}
