package mlless_test

import (
	"fmt"

	"mlless"
)

// Example trains a tiny PMF job with the ISP significance filter and
// prints whether it reached the target loss. Larger, realistic setups
// are in the examples/ directory.
func Example() {
	cluster := mlless.NewCluster()
	cfg := mlless.MovieLensConfig{
		Users: 100, Items: 400, Ratings: 15_000,
		Rank: 8, NoiseStd: 0.6, SignalStd: 0.8, Seed: 7,
	}
	ds := mlless.GenerateMovieLens(cfg)
	n := mlless.StageDatasetShards(cluster, ds, "ratings", 300, 0, 7)

	job := mlless.Job{
		Spec: mlless.Spec{
			Workers:      4,
			Sync:         mlless.ISP,
			Significance: 0.7,
			TargetLoss:   0.85,
			MaxSteps:     500,
		},
		Model:      mlless.NewPMF(cfg.Users, cfg.Items, cfg.Rank, ds.RatingMean, 0.02, 7),
		Optimizer:  mlless.NewNesterov(mlless.Constant(5), 0.9),
		Bucket:     "ratings",
		NumBatches: n,
		BatchSize:  300,
	}
	res, err := mlless.Train(cluster, job)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("converged:", res.Converged)
	// Output: converged: true
}
