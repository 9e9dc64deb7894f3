// The cross-system sanity check of §6.1: with a fixed seed and a single
// worker, the per-step convergence of MLLess, the serverful (PyTorch-like)
// trainer and the PyWren-like trainer must be exactly identical — "no
// technical advantage of one system over the other due to subtle model
// artifacts". The tests live outside package baseline because the two
// trainers import it.
package baseline_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlless/internal/baseline/pywren"
	"mlless/internal/baseline/serverful"
	"mlless/internal/core"
	"mlless/internal/dataset"
	"mlless/internal/model"
	"mlless/internal/optimizer"
	"mlless/internal/vclock"
)

var update = flag.Bool("update", false, "rewrite testdata/parity-*.golden from the current MLLess run and testdata/system-*.golden from the current baselines")

// stageJob prepares one cluster + job pair per system over identical
// data.
func stageJob(t *testing.T, pmf bool) (*core.Cluster, core.Job) {
	t.Helper()
	cl := core.NewCluster()
	var clk vclock.Clock
	var job core.Job
	if pmf {
		cfg := dataset.MovieLensConfig{Users: 100, Items: 400, Ratings: 15000, Rank: 6, NoiseStd: 0.6, Seed: 41}
		ds := dataset.GenerateMovieLens(cfg)
		n := dataset.StageShards(ds, cl.COS, &clk, "data", 300, dataset.DefaultBatchesPerShard, 13)
		job = core.Job{
			Spec:       core.Spec{Workers: 1, MaxSteps: 40},
			Model:      model.NewPMF(cfg.Users, cfg.Items, cfg.Rank, ds.RatingMean, 0.02, 43),
			Optimizer:  optimizer.NewNesterov(optimizer.Constant(1.0), 0.9),
			Bucket:     "data",
			NumBatches: n,
			BatchSize:  300,
		}
	} else {
		cfg := dataset.CriteoConfig{
			Samples: 3000, NumericFeatures: 5, CategoricalFeatures: 8,
			HashDim: 1000, Cardinality: 100, Separation: 1.6, Seed: 47,
		}
		ds := dataset.GenerateCriteo(cfg)
		n := dataset.StageShards(ds, cl.COS, &clk, "data", 300, dataset.DefaultBatchesPerShard, 13)
		job = core.Job{
			Spec:       core.Spec{Workers: 1, MaxSteps: 40},
			Model:      model.NewLogReg(cfg.HashDim+cfg.NumericFeatures, 0),
			Optimizer:  optimizer.NewAdamDefaults(optimizer.Constant(0.05)),
			Bucket:     "data",
			NumBatches: n,
			BatchSize:  300,
		}
	}
	return cl, job
}

// lossGolden renders a loss history as the committed text form (same as
// internal/core's): loss and raw loss as float64 bit patterns in hex.
func lossGolden(res *core.Result) []byte {
	var b bytes.Buffer
	b.WriteString("# step loss raw_loss workers (float64 bits, hex)\n")
	for _, p := range res.History {
		fmt.Fprintf(&b, "%d %016x %016x %d\n", p.Step,
			math.Float64bits(p.Loss), math.Float64bits(p.RawLoss), p.Workers)
	}
	return b.Bytes()
}

// TestSanityCheckParity is the §6.1 check, pinned: every system's
// single-worker loss history, and the zero-cost reference's, must equal
// testdata/parity-<model>.golden bit for bit — hence each other's. The
// goldens were captured from the row-encoded batch tier in the commit
// before it was deleted, so they also pin each baseline's data path to
// its predecessor.
func TestSanityCheckParity(t *testing.T) {
	systems := []struct {
		name  string
		train func(*core.Cluster, core.Job) (*core.Result, error)
	}{
		{"mlless", core.Run},
		{"reference", reference},
		{"pytorch", func(cl *core.Cluster, job core.Job) (*core.Result, error) {
			return serverful.Train(cl.COS, job, serverful.DefaultConfig())
		}},
		{"pywren", func(cl *core.Cluster, job core.Job) (*core.Result, error) {
			return pywren.Train(cl.Platform, cl.COS, job, pywren.DefaultConfig())
		}},
	}
	for _, tc := range []struct {
		name string
		pmf  bool
	}{
		{"LR", false},
		{"PMF", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(sys int) []byte {
				cl, job := stageJob(t, tc.pmf)
				res, err := systems[sys].train(cl, job)
				if err != nil {
					t.Fatal(err)
				}
				return lossGolden(res)
			}
			path := filepath.Join("testdata", "parity-"+strings.ToLower(tc.name)+".golden")
			if *update {
				if err := os.WriteFile(path, run(0), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, sys := range systems {
				if got := run(i); !bytes.Equal(want, got) {
					t.Fatalf("%s diverges from %s:\nwant:\n%s\ngot:\n%s", sys.name, path, want, got)
				}
			}
		})
	}
}

// TestSystemsDifferInTimeNotMath pins the complementary property: the
// same 1-worker runs above must produce different wall-clock and cost
// profiles even though the math is identical.
func TestSystemsDifferInTimeNotMath(t *testing.T) {
	clA, jobA := stageJob(t, true)
	mlless, err := core.Run(clA, jobA)
	if err != nil {
		t.Fatal(err)
	}
	clB, jobB := stageJob(t, true)
	pt, err := serverful.Train(clB.COS, jobB, serverful.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	clC, jobC := stageJob(t, true)
	pw, err := pywren.Train(clC.Platform, clC.COS, jobC, pywren.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if mlless.ExecTime == pt.ExecTime || mlless.ExecTime == pw.ExecTime {
		t.Fatal("systems models suspiciously identical in time")
	}
	// PyWren must be the slowest of the three (§6.2's headline).
	if pw.ExecTime <= mlless.ExecTime || pw.ExecTime <= pt.ExecTime {
		t.Fatalf("PyWren (%v) not slowest: mlless=%v pytorch=%v", pw.ExecTime, mlless.ExecTime, pt.ExecTime)
	}
}
