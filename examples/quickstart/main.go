// Quickstart: train sparse logistic regression on Criteo-shaped data
// with MLLess and print the convergence trace and the bill.
package main

import (
	"fmt"
	"log"
	"time"

	"mlless"
)

func main() {
	// A simulated deployment: FaaS platform + Redis + broker + object
	// store, with the paper's prices and limits.
	cluster := mlless.NewCluster()

	// Generate a small Criteo-shaped dataset (13 numeric + 26 hashed
	// categorical features), min-max normalize the numeric features and
	// stage it as columnar mini-batch shards in object storage.
	cfg := mlless.DefaultCriteoConfig()
	cfg.Samples = 20_000
	cfg.HashDim = 20_000
	ds := mlless.GenerateCriteo(cfg)
	mlless.NormalizeInMemory(ds, cfg.NumericFeatures)
	n := mlless.StageDatasetShards(cluster, ds, "criteo", 500, 0, 1)

	job := mlless.Job{
		Spec: mlless.Spec{
			Workers:      8,
			Sync:         mlless.ISP,
			Significance: 0.7, // the paper's v
			TargetLoss:   0.60,
			MaxSteps:     600,
		},
		Model:      mlless.NewLogReg(ds.FeatureDim, 1e-4),
		Optimizer:  mlless.NewAdam(mlless.Constant(0.02)),
		Bucket:     "criteo",
		NumBatches: n,
		BatchSize:  500,
	}

	res, err := mlless.Train(cluster, job)
	if err != nil {
		log.Fatal(err)
	}

	for i, p := range res.History {
		if i%20 == 0 || i == len(res.History)-1 {
			fmt.Printf("step %4d  t=%-10v  BCE=%.4f\n", p.Step, p.Time.Round(time.Millisecond), p.Loss)
		}
	}
	fmt.Printf("\nconverged=%v in %v over %d steps (final BCE %.4f)\n",
		res.Converged, res.ExecTime.Round(time.Millisecond), res.Steps, res.FinalLoss)
	fmt.Println("\nitemized bill:")
	fmt.Print(res.Cost)
}
