package mlless

import (
	"testing"
)

// stageSmallPMF builds a small PMF job through the public API only.
func stageSmallPMF(t *testing.T, workers int) (*Cluster, Job) {
	t.Helper()
	cfg := MovieLensConfig{Users: 150, Items: 600, Ratings: 20_000, Rank: 8, NoiseStd: 0.6, SignalStd: 0.8, Seed: 9}
	ds := GenerateMovieLens(cfg)
	cluster := NewCluster()
	n := StageDatasetShards(cluster, ds, "ml", 400, 0, 9)
	return cluster, Job{
		Spec:       Spec{Workers: workers, MaxSteps: 60},
		Model:      NewPMF(cfg.Users, cfg.Items, cfg.Rank, ds.RatingMean, 0.02, 9),
		Optimizer:  NewNesterov(Constant(4), 0.9),
		Bucket:     "ml",
		NumBatches: n,
		BatchSize:  400,
	}
}

// TestPublicAPITrain exercises the facade end to end.
func TestPublicAPITrain(t *testing.T) {
	cluster, job := stageSmallPMF(t, 4)
	job.Spec.Sync = ISP
	job.Spec.Significance = 0.7
	res, err := Train(cluster, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 60 || len(res.History) != 60 {
		t.Fatalf("steps = %d", res.Steps)
	}
	if res.History[len(res.History)-1].Loss >= res.History[0].Loss {
		t.Fatal("loss did not decrease")
	}
	if res.Cost.Total <= 0 {
		t.Fatal("no cost accrued")
	}
}

// TestPublicAPIBaselines runs both baselines through the facade and
// re-checks the §6.1 sanity parity at the public surface.
func TestPublicAPIBaselines(t *testing.T) {
	clusterA, jobA := stageSmallPMF(t, 1)
	mllessRes, err := Train(clusterA, jobA)
	if err != nil {
		t.Fatal(err)
	}
	clusterB, jobB := stageSmallPMF(t, 1)
	ptRes, err := TrainServerful(clusterB, jobB, DefaultServerfulConfig())
	if err != nil {
		t.Fatal(err)
	}
	clusterC, jobC := stageSmallPMF(t, 1)
	pwRes, err := TrainPyWren(clusterC, jobC, DefaultPyWrenConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range mllessRes.History {
		if mllessRes.History[i].RawLoss != ptRes.History[i].RawLoss ||
			mllessRes.History[i].RawLoss != pwRes.History[i].RawLoss {
			t.Fatalf("sanity parity broken at step %d", i+1)
		}
	}
}

// TestPublicAPILogReg covers the LR + normalization path.
func TestPublicAPILogReg(t *testing.T) {
	cfg := DefaultCriteoConfig()
	cfg.Samples = 3000
	cfg.HashDim = 2000
	ds := GenerateCriteo(cfg)
	cluster := NewCluster()
	NormalizeInMemory(ds, cfg.NumericFeatures)
	n := StageDatasetShards(cluster, ds, "criteo", 250, 0, 1)
	job := Job{
		Spec:       Spec{Workers: 4, MaxSteps: 80},
		Model:      NewLogReg(ds.FeatureDim, 1e-4),
		Optimizer:  NewAdam(Constant(0.02)),
		Bucket:     "criteo",
		NumBatches: n,
		BatchSize:  250,
	}
	res, err := Train(cluster, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.History[len(res.History)-1].Loss >= res.History[0].Loss {
		t.Fatal("BCE did not decrease")
	}
}

// TestOptimizerConstructors pins the exported constructors.
func TestOptimizerConstructors(t *testing.T) {
	for _, o := range []Optimizer{
		NewSGD(Constant(0.1)),
		NewMomentum(InvSqrt(0.1), 0.9),
		NewNesterov(Constant(0.1), 0.9),
		NewAdam(Constant(0.1)),
	} {
		if o.Name() == "" {
			t.Fatal("unnamed optimizer")
		}
	}
}
