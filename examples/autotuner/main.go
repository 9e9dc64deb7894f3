// Auto-tuner: watch the scale-in scheduler (§4.2) shrink the worker
// pool as a PMF job passes the knee of its learning curve, and compare
// cost-efficiency (Perf/$) with the fixed-pool run.
package main

import (
	"fmt"
	"log"
	"time"

	"mlless"
)

func main() {
	cfg := mlless.MovieLensConfig{
		Users: 800, Items: 3_000, Ratings: 150_000,
		Rank: 20, NoiseStd: 0.7, SignalStd: 0.8, Seed: 11,
	}
	ds := mlless.GenerateMovieLens(cfg)

	run := func(tune bool) *mlless.Result {
		cluster := mlless.NewCluster()
		n := mlless.StageDatasetShards(cluster, ds, "ml", 500, 0, 11)
		job := mlless.Job{
			Spec: mlless.Spec{
				Workers:      16,
				Sync:         mlless.ISP,
				Significance: 0.7,
				TargetLoss:   0.74,
				MaxSteps:     3000,
				AutoTune:     tune,
				// Scheduling epoch scaled to this small job; the paper
				// uses T=20s with Δ=10s on its longer-running jobs.
				Sched: mlless.SchedulerConfig{Epoch: 1500 * time.Millisecond},
			},
			Model:      mlless.NewPMF(cfg.Users, cfg.Items, cfg.Rank, ds.RatingMean, 0.02, 11),
			Optimizer:  mlless.NewNesterov(mlless.Constant(20), 0.9),
			Bucket:     "ml",
			NumBatches: n,
			BatchSize:  500,
		}
		res, err := mlless.Train(cluster, job)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fixed := run(false)
	tuned := run(true)

	fmt.Println("auto-tuned run:")
	for _, r := range tuned.Removals {
		fmt.Printf("  t=%-10v evicted worker %2d -> pool %d\n",
			r.Time.Round(time.Millisecond), r.Worker, r.WorkersLeft)
	}
	perf := func(r *mlless.Result) float64 {
		return 1 / (r.ExecTime.Seconds() * r.Cost.Total)
	}
	fmt.Printf("\n%-10s time=%-12v cost=$%-8.4f Perf/$=%.2f\n",
		"fixed", fixed.ExecTime.Round(time.Millisecond), fixed.Cost.Total, perf(fixed))
	fmt.Printf("%-10s time=%-12v cost=$%-8.4f Perf/$=%.2f\n",
		"auto-tuned", tuned.ExecTime.Round(time.Millisecond), tuned.Cost.Total, perf(tuned))
	fmt.Printf("\nPerf/$ gain: %.2fx  (workers %d -> %d)\n",
		perf(tuned)/perf(fixed), 16, tuned.History[len(tuned.History)-1].Workers)
}
