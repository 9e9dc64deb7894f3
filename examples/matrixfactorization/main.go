// Matrix factorization: train PMF on MovieLens-shaped ratings and show
// what the ISP significance filter buys — the paper's key optimization
// (§4.1). The example runs the same job under BSP and under ISP with
// v = 0.7 and compares execution time, bytes exchanged, and cost.
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
		Rank: 20, NoiseStd: 0.7, SignalStd: 0.8, Seed: 7,
	}
	ds := mlless.GenerateMovieLens(cfg)
	fmt.Printf("dataset: %d ratings, %d users x %d items (mean %.2f)\n\n",
		ds.Len(), ds.NumUsers, ds.NumItems, ds.RatingMean)

	run := func(sync mlless.SyncMode, v float64) *mlless.Result {
		cluster := mlless.NewCluster()
		n := mlless.StageDatasetShards(cluster, ds, "ml", 500, 0, 7)
		job := mlless.Job{
			Spec: mlless.Spec{
				Workers:      12,
				Sync:         sync,
				Significance: v,
				TargetLoss:   0.80,
				MaxSteps:     2000,
			},
			Model:      mlless.NewPMF(cfg.Users, cfg.Items, cfg.Rank, ds.RatingMean, 0.02, 7),
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

	bsp := run(mlless.BSP, 0)
	isp := run(mlless.ISP, 0.7)

	report := func(name string, r *mlless.Result) {
		fmt.Printf("%-12s converged=%-5v time=%-12v steps=%-5d update-MB=%-8.1f cost=$%.4f\n",
			name, r.Converged, r.ExecTime.Round(time.Millisecond), r.Steps,
			float64(r.TotalUpdateBytes)/1e6, r.Cost.Total)
	}
	report("BSP", bsp)
	report("ISP v=0.7", isp)

	if bsp.ExecTime > 0 && isp.ExecTime > 0 {
		fmt.Printf("\nISP speedup: %.2fx  (traffic reduced %.1fx)\n",
			bsp.ExecTime.Seconds()/isp.ExecTime.Seconds(),
			float64(bsp.TotalUpdateBytes)/float64(isp.TotalUpdateBytes))
	}
}
