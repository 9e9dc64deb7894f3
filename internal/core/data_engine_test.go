package core

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/dataset"
	"mlless/internal/exchange"
	"mlless/internal/faults"
	"mlless/internal/model"
	"mlless/internal/optimizer"
	"mlless/internal/vclock"
)

var update = flag.Bool("update", false, "rewrite testdata/loss-*.golden from the row-encoded batch tier")

// testPMFJobBatch is testPMFJob staged on the row-encoded batch tier:
// identical samples (same generator config, same staging seed), one
// encoded object per mini-batch behind Spec.Data = DataBatch.
func testPMFJobBatch(t testing.TB, workers int, spec Spec) (*Cluster, Job) {
	t.Helper()
	cl := NewCluster()
	cfg := dataset.MovieLensConfig{Users: 150, Items: 600, Ratings: 30000, Rank: 8, NoiseStd: 0.6, Seed: 21}
	ds := dataset.GenerateMovieLens(cfg)
	var clk vclock.Clock
	n := dataset.Stage(ds, cl.COS, &clk, "ml", 500, 2)
	spec.Workers = workers
	spec.Data = DataBatch
	return cl, Job{
		Spec:       spec,
		Model:      model.NewPMF(cfg.Users, cfg.Items, cfg.Rank, ds.RatingMean, 0.02, 31),
		Optimizer:  optimizer.NewNesterov(optimizer.Constant(1.0), 0.9),
		Bucket:     "ml",
		NumBatches: n,
		BatchSize:  500,
	}
}

// testLRJobBatch is testLRJob on the batch tier, which normalizes after
// staging (NormalizeMinMax) where the shard tier normalizes in place and
// stages the result — TestNormalizeMatchesInPlace in internal/dataset
// pins the two orderings byte-equal.
func testLRJobBatch(t testing.TB, workers int, spec Spec) (*Cluster, Job) {
	t.Helper()
	cl := NewCluster()
	cfg := dataset.CriteoConfig{
		Samples: 6000, NumericFeatures: 5, CategoricalFeatures: 8,
		HashDim: 2000, Cardinality: 100, Separation: 1.6, Seed: 11,
	}
	ds := dataset.GenerateCriteo(cfg)
	var clk vclock.Clock
	n := dataset.Stage(ds, cl.COS, &clk, "criteo", 250, 1)
	if err := dataset.NormalizeMinMax(cl.COS, &clk, "criteo", n, cfg.NumericFeatures); err != nil {
		t.Fatal(err)
	}
	spec.Workers = workers
	spec.Data = DataBatch
	return cl, Job{
		Spec:       spec,
		Model:      model.NewLogReg(cfg.HashDim+cfg.NumericFeatures, 0),
		Optimizer:  optimizer.NewAdamDefaults(optimizer.Constant(0.05)),
		Bucket:     "criteo",
		NumBatches: n,
		BatchSize:  250,
	}
}

// lossGolden renders a loss history as the committed text form: one
// line per step holding the smoothed loss, the raw loss (float64 bit
// patterns in hex, so equal bytes mean equal bits) and the pool size.
// Times and bills are left out on purpose: the two tiers charge
// different fetch extents.
func lossGolden(res *Result) []byte {
	var b bytes.Buffer
	b.WriteString("# step loss raw_loss workers (float64 bits, hex)\n")
	for _, p := range res.History {
		fmt.Fprintf(&b, "%d %016x %016x %d\n", p.Step,
			math.Float64bits(p.Loss), math.Float64bits(p.RawLoss), p.Workers)
	}
	return b.Bytes()
}

// stager is the shape of the test job builders.
type stager func(testing.TB, int, Spec) (*Cluster, Job)

// assertLossGolden pins the numerics of the data path on
// testdata/loss-<name>.golden: the file was captured from the
// row-encoded batch tier and both tiers must reproduce it bit for bit —
// per-step loss, raw loss and pool size, which covers the
// per-coordinate gradient accumulation order, the normalization
// ordering (LR) and, under async and faults, that the tiers' different
// fetch charges reorder no update.
func assertLossGolden(t *testing.T, name string, batch, shard stager, spec Spec) {
	t.Helper()
	run := func(stage stager) []byte {
		cl, job := stage(t, 4, spec)
		res, err := Run(cl, job)
		if err != nil {
			t.Fatal(err)
		}
		return lossGolden(res)
	}
	path := filepath.Join("testdata", "loss-"+name+".golden")
	if *update {
		if err := os.WriteFile(path, run(batch), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct {
		name  string
		stage stager
	}{{DataBatch, batch}, {DataShard, shard}} {
		if got := run(tier.stage); !bytes.Equal(want, got) {
			t.Fatalf("%s tier diverges from %s:\nwant:\n%s\ngot:\n%s", tier.name, path, want, got)
		}
	}
}

// TestDataShardLossMatchesBatchPMF pins the tentpole contract: the
// shard tier trains the exact same model as the batch tier the goldens
// were captured from, under every schedule, exchange and a faulted run.
func TestDataShardLossMatchesBatchPMF(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"bsp", Spec{MaxSteps: 60}},
		{"isp", Spec{MaxSteps: 60, Sync: consistency.ISP, Significance: 0.01}},
		{"ssp", Spec{MaxSteps: 60, Staleness: 3}},
		{"async", Spec{MaxSteps: 60, Sync: consistency.Async, Staleness: 2}},
		{"tree", Spec{MaxSteps: 60, Exchange: exchange.KindTree, TreeFanout: 4}},
		{"reclaim", Spec{MaxSteps: 60,
			Faults: faults.Spec{Seed: 3, ReclaimProb: 0.3, ReclaimMeanLife: 2 * time.Second}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			assertLossGolden(t, "pmf-"+tc.name, testPMFJobBatch, testPMFJob, tc.spec)
		})
	}
}

// TestDataShardLossMatchesBatchLR covers the Criteo path, including the
// min-max normalization that the two tiers apply at different points
// (post-staging streaming pass vs pre-staging in-place pass).
func TestDataShardLossMatchesBatchLR(t *testing.T) {
	assertLossGolden(t, "lr-bsp", testLRJobBatch, testLRJob, Spec{MaxSteps: 40})
}

// noViewModel wraps a real model but hides its view interface.
type noViewModel struct{ model.Model }

func (m noViewModel) Clone() model.Model { return noViewModel{m.Model.Clone()} }

func TestDataValidation(t *testing.T) {
	cl, job := testPMFJob(t, 2, Spec{MaxSteps: 1})
	job.Spec.Data = "columnar"
	if _, err := Run(cl, job); !errors.Is(err, ErrUnknownData) {
		t.Fatalf("unknown data tier: got %v, want ErrUnknownData", err)
	}

	cl2, job2 := testPMFJob(t, 2, Spec{MaxSteps: 1})
	job2.Model = noViewModel{job2.Model}
	if _, err := Run(cl2, job2); !errors.Is(err, ErrModelNoView) {
		t.Fatalf("non-view model on shard tier: got %v, want ErrModelNoView", err)
	}
}

// TestDataShardMissingManifest: a shard job against a bucket staged
// only with batch objects fails fast at setup.
func TestDataShardMissingManifest(t *testing.T) {
	cl, job := testPMFJobBatch(t, 2, Spec{MaxSteps: 1})
	job.Spec.Data = DataShard
	if _, err := Run(cl, job); err == nil {
		t.Fatal("shard job without a staged manifest must fail")
	}
}

// TestDataShardManifestMismatch: a stale NumBatches in the job spec is
// rejected against the staged manifest.
func TestDataShardManifestMismatch(t *testing.T) {
	cl, job := testPMFJob(t, 2, Spec{MaxSteps: 1})
	job.NumBatches--
	if _, err := Run(cl, job); err == nil {
		t.Fatal("manifest/job batch-count mismatch must fail")
	}
}

// TestDataShardDeterminism: two identical shard-tier runs are
// byte-identical in steps, times and losses (mirrors TestDeterminism).
func TestDataShardDeterminism(t *testing.T) {
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

// TestDataShardStepAllocsBounded extends the PR 5 allocation guard to
// the shard tier: the zero-copy fetch path must not regress the
// steady-state step budget (the view path removes the per-fetch decode
// the batch cache amortized, so the same bound applies).
func TestDataShardStepAllocsBounded(t *testing.T) {
	mallocs := func(steps int) float64 {
		cl, job := testPMFJob(t, 4, Spec{MaxSteps: steps})
		return runMallocs(t, cl, job)
	}
	mallocs(10) // warm pools, caches and lazy scratch
	short := mallocs(40)
	long := mallocs(120)
	marginal := (long - short) / 80
	t.Logf("marginal allocations per step (shard tier): %.1f", marginal)
	if marginal > 250 {
		t.Fatalf("shard-tier steady-state step allocates %.1f per step, want <= 250", marginal)
	}
}
