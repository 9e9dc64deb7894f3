package mlless

// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6) via the experiment harness. Each benchmark runs its
// experiment in quick mode (small datasets, reduced sweeps); the full
// configurations are regenerated with `go run mlless/cmd/mlless-bench`.

import (
	"testing"

	"mlless/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	for i := 0; i < b.N; i++ {
		table, err := runner(experiments.Options{Quick: true, ArtifactDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkFig2a regenerates Fig 2a: training speed vs worker count.
func BenchmarkFig2a(b *testing.B) { benchExperiment(b, "fig2a") }

// BenchmarkFig2b regenerates Fig 2b: the reference-curve fit.
func BenchmarkFig2b(b *testing.B) { benchExperiment(b, "fig2b") }

// BenchmarkFig2c regenerates Fig 2c: prediction error 50-200 steps ahead.
func BenchmarkFig2c(b *testing.B) { benchExperiment(b, "fig2c") }

// BenchmarkFig2d regenerates Fig 2d: prediction error vs fitting points.
func BenchmarkFig2d(b *testing.B) { benchExperiment(b, "fig2d") }

// BenchmarkFig3 regenerates Fig 3: intra-function thread speedup.
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkTable1 regenerates Table 1: models, datasets and settings.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2 regenerates Table 2: the pricing model.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig4 regenerates Fig 4: time-to-convergence vs significance
// threshold.
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5 regenerates Fig 5: the scale-in auto-tuner's Perf/$.
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkTable3 regenerates Table 3: constant-global-batch scaling.
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig6 regenerates Fig 6: loss vs time across systems.
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Fig 7: loss under fixed budgets.
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// Ablation benches: design choices DESIGN.md calls out, beyond the
// paper's own figures.

// BenchmarkAblFilter compares significance-filter designs.
func BenchmarkAblFilter(b *testing.B) { benchExperiment(b, "abl-filter") }

// BenchmarkAblKnee compares knee detectors in the auto-tuner.
func BenchmarkAblKnee(b *testing.B) { benchExperiment(b, "abl-knee") }

// BenchmarkAblMerge toggles the eviction replica merge.
func BenchmarkAblMerge(b *testing.B) { benchExperiment(b, "abl-merge") }

// BenchmarkAblAllReduce compares ring vs naive all-reduce timing.
func BenchmarkAblAllReduce(b *testing.B) { benchExperiment(b, "abl-allreduce") }

// BenchmarkAblStartup re-adds the startup times the paper excludes.
func BenchmarkAblStartup(b *testing.B) { benchExperiment(b, "abl-startup") }

// BenchmarkAblSSP sweeps the SSP staleness bound.
func BenchmarkAblSSP(b *testing.B) { benchExperiment(b, "abl-ssp") }

// BenchmarkAblAsync compares the barrier-free async schedule to BSP/ISP.
func BenchmarkAblAsync(b *testing.B) { benchExperiment(b, "abl-async") }

// BenchmarkAblTenancy runs the multi-tenant control plane trace.
func BenchmarkAblTenancy(b *testing.B) { benchExperiment(b, "abl-tenancy") }

// BenchmarkAblDataset measures the data tier's per-step fetch and
// streaming shard generation.
func BenchmarkAblDataset(b *testing.B) { benchExperiment(b, "abl-dataset") }

// BenchmarkTrainQuickPMF measures one end-to-end MLLess training run
// (PMF, ISP, 4 workers) — the library's core path.
func BenchmarkTrainQuickPMF(b *testing.B) {
	cfg := MovieLensConfig{Users: 200, Items: 800, Ratings: 30_000, Rank: 8, NoiseStd: 0.6, SignalStd: 0.8, Seed: 3}
	ds := GenerateMovieLens(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster := NewCluster()
		n := StageDatasetShards(cluster, ds, "ml", 500, 0, 3)
		job := Job{
			Spec:       Spec{Workers: 4, Sync: ISP, Significance: 0.7, MaxSteps: 50},
			Model:      NewPMF(cfg.Users, cfg.Items, cfg.Rank, ds.RatingMean, 0.02, 3),
			Optimizer:  NewNesterov(Constant(20), 0.9),
			Bucket:     "ml",
			NumBatches: n,
			BatchSize:  500,
		}
		if _, err := Train(cluster, job); err != nil {
			b.Fatal(err)
		}
	}
}
