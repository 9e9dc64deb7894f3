package serverful

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"mlless/internal/core"
	"mlless/internal/dataset"
	"mlless/internal/model"
	"mlless/internal/netmodel"
	"mlless/internal/objstore"
	"mlless/internal/optimizer"
	"mlless/internal/vclock"
)

func stagePMF(t *testing.T) (*objstore.Store, core.Job) {
	t.Helper()
	cos := objstore.New(netmodel.COSLink())
	cfg := dataset.MovieLensConfig{Users: 120, Items: 500, Ratings: 20000, Rank: 8, NoiseStd: 0.6, Seed: 5}
	ds := dataset.GenerateMovieLens(cfg)
	var clk vclock.Clock
	n := dataset.StageShards(ds, cos, &clk, "ml", 400, dataset.DefaultBatchesPerShard, 3)
	return cos, core.Job{
		Spec:       core.Spec{Workers: 4, TargetLoss: 0.80, MaxSteps: 1000},
		Model:      model.NewPMF(cfg.Users, cfg.Items, cfg.Rank, ds.RatingMean, 0.02, 9),
		Optimizer:  optimizer.NewNesterov(optimizer.Constant(1.0), 0.9),
		Bucket:     "ml",
		NumBatches: n,
		BatchSize:  400,
	}
}

func TestConverges(t *testing.T) {
	cos, job := stagePMF(t)
	res, err := Train(cos, job, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: final %v after %d steps", res.FinalLoss, res.Steps)
	}
	if res.ExecTime <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestDenseCommunicationEveryStep(t *testing.T) {
	cos, job := stagePMF(t)
	job.Spec.TargetLoss = 0
	job.Spec.MaxSteps = 10
	res, err := Train(cos, job, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dense := int64(job.Model.NumParams()*8+4) * int64(job.Spec.Workers)
	for _, p := range res.History {
		if p.UpdateBytes != dense {
			t.Fatalf("step %d moved %d bytes, want dense %d", p.Step, p.UpdateBytes, dense)
		}
	}
}

func TestBilledPerVM(t *testing.T) {
	cos, job := stagePMF(t)
	job.Spec.Workers = 6 // 2 VMs at 4 procs/VM
	job.Spec.TargetLoss = 0
	job.Spec.MaxSteps = 5
	res, err := Train(cos, job, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	vms := 0
	for _, c := range res.Cost.Components {
		if !strings.Contains(c.Name, "pytorch-vm") || c.Kind != "vm" {
			t.Fatalf("unexpected component %+v", c)
		}
		if c.Duration != res.ExecTime {
			t.Fatal("VM billed for less than the whole job (reservation model violated)")
		}
		vms++
	}
	if vms != 2 {
		t.Fatalf("billed %d VMs, want 2", vms)
	}
}

func TestDenseParamThroughputSlowsSteps(t *testing.T) {
	cos, job := stagePMF(t)
	job.Spec.TargetLoss = 0
	job.Spec.MaxSteps = 10
	fast := DefaultConfig()
	fast.DenseParamThroughput = 50e6 // nearly free framework
	slow := DefaultConfig()
	slow.DenseParamThroughput = 100e3
	fr, err := Train(cos, job, fast)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Train(cos, job, slow)
	if err != nil {
		t.Fatal(err)
	}
	if sr.ExecTime <= fr.ExecTime {
		t.Fatalf("slow framework (%v) not slower than fast (%v)", sr.ExecTime, fr.ExecTime)
	}
	// Identical math regardless of the systems model.
	if sr.FinalLoss != fr.FinalLoss {
		t.Fatal("systems knobs changed the mathematics")
	}
}

// TestPartialConfigTakesDefaults pins that every unset Config field,
// Link included, takes DefaultConfig's value: a zero link would make the
// all-reduce free.
func TestPartialConfigTakesDefaults(t *testing.T) {
	cos, job := stagePMF(t)
	job.Spec.TargetLoss = 0
	job.Spec.MaxSteps = 10
	want, err := Train(cos, job, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Train(cos, job, Config{ProcsPerVM: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.ExecTime != want.ExecTime || !reflect.DeepEqual(got.Cost, want.Cost) {
		t.Fatalf("Config{ProcsPerVM: 4} ran %v for $%g, DefaultConfig %v for $%g",
			got.ExecTime, got.Cost.Total, want.ExecTime, want.Cost.Total)
	}
}

func TestJobPrototypeNotMutated(t *testing.T) {
	cos, job := stagePMF(t)
	job.Spec.TargetLoss = 0
	job.Spec.MaxSteps = 5
	if _, err := Train(cos, job, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	// Running twice from the same prototypes must be identical.
	a, err := Train(cos, job, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(cos, job, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalLoss != b.FinalLoss {
		t.Fatal("prototype model/optimizer mutated by Train")
	}
}

func TestValidation(t *testing.T) {
	cos, job := stagePMF(t)
	bad := job
	bad.Spec.Workers = 0
	if _, err := Train(cos, bad, DefaultConfig()); err == nil {
		t.Fatal("zero workers accepted")
	}
	bad = job
	bad.NumBatches = 0
	if _, err := Train(cos, bad, DefaultConfig()); err == nil {
		t.Fatal("no data accepted")
	}
	bad = job
	bad.Model = nil
	if _, err := Train(cos, bad, DefaultConfig()); err == nil {
		t.Fatal("nil model accepted")
	}
	bad = job
	bad.Spec.Data = "batch"
	if _, err := Train(cos, bad, DefaultConfig()); !errors.Is(err, core.ErrUnknownData) {
		t.Fatalf("removed data tier: got %v, want ErrUnknownData", err)
	}
}

func TestMaxWallClock(t *testing.T) {
	cos, job := stagePMF(t)
	job.Spec.TargetLoss = 0
	job.Spec.MaxSteps = 100000
	job.Spec.MaxWallClock = 3 * time.Second
	res, err := Train(cos, job, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime > 6*time.Second {
		t.Fatalf("ran to %v despite 3s cap", res.ExecTime)
	}
}
