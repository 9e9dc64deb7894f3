package experiments

import (
	"fmt"
	"time"

	"mlless/internal/cost"
)

// Table1 prints the experimental settings (the paper's Table 1) as this
// reproduction instantiates them.
func Table1(opts Options) (Table, error) {
	rows := [][]string{}
	for _, wl := range []*Workload{LRCriteo(opts.Quick), PMF10M(opts.Quick), PMF20M(opts.Quick)} {
		cl, job := wl.Make(12)
		_ = cl
		rows = append(rows, []string{
			wl.Name,
			job.Model.Name(),
			job.Optimizer.Name(),
			fmt.Sprintf("%d", job.Model.NumParams()),
			fmt.Sprintf("%d", wl.BatchSize),
			fmt.Sprintf("%d", job.NumBatches),
			fmtF(wl.TargetLoss),
		})
	}
	return Table{
		ID:     "table1",
		Title:  "ML models, datasets and settings (paper Table 1, simulator scale)",
		Header: []string{"workload", "model", "optimizer", "params", "B", "batches", "target-loss"},
		Rows:   rows,
		Notes: []string{
			"paper: LR/Criteo Adam B=6250; PMF/ML-10M Nesterov B=6250 r=20; PMF/ML-20M B=12K r=20; workers 12/24",
		},
	}, nil
}

// Table2 prints the pricing model (the paper's Table 2).
func Table2(Options) (Table, error) {
	fn2GBHourly := cost.FunctionCost(time.Hour, 2)
	return Table{
		ID:     "table2",
		Title:  "Pricing from IBM Cloud, us-east, April 2021 (paper Table 2)",
		Header: []string{"instance", "role", "price"},
		Rows: [][]string{
			{"C1.4x4 (4vCPU,4GB)", "MLLess messaging service", fmt.Sprintf("$%.2f/hour", cost.PriceC14x4PerHour)},
			{"M1.2x16 (2vCPU,16GB)", "Redis", fmt.Sprintf("$%.2f/hour", cost.PriceM12x16PerHour)},
			{"Functions (1vCPU,2GB)", "MLLess worker", fmt.Sprintf("$%.1e/s ($%.3f/hour)", cost.FunctionCost(time.Second, 2), fn2GBHourly)},
			{"B1.4x8 (4vCPU,8GB)", "PyTorch worker", fmt.Sprintf("$%.2f/hour", cost.PriceB14x8PerHour)},
		},
	}, nil
}
