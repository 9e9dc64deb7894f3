package experiments

import (
	"fmt"
	"time"
)

// Fig7 reproduces Fig 7: cost-vs-loss under fixed budgets. For each
// budget (a fraction of what PyTorch spends to reach the prudent loss)
// it reports, per system, the loss attainable within the budget and the
// maximum execution time the budget affords — the numbers above the bars
// in the paper's figure. The paper's headline: MLLess is 4.94x (ML-10M)
// and 6.32x (ML-20M) cheaper than PyTorch, and "MLLess + All provides
// the best cost-performance trade-off in all applications, even for the
// tiny budget of 9 cents".
func Fig7(opts Options) (Table, error) {
	workloads, workers := Fig6Workloads(opts)
	fractions := pick(opts, []float64{0.05, 0.15, 0.5, 1.0}, []float64{0.15, 1.0})
	t := Table{
		ID:     "fig7",
		Title:  "Loss attainable under fixed budgets (and max affordable runtime)",
		Header: []string{"workload", "budget-$", "system", "affordable-time", "loss-at-budget", "cost-to-prudent-$"},
		Notes: []string{
			"budgets are fractions of PyTorch's cost to the prudent loss",
			"paper: MLLess ≈ 4.9-6.3x cheaper than PyTorch; PyTorch affords the longest runtime (cheap VMs) but converges least per unit time",
		},
	}
	for _, wl := range workloads {
		pytorch, err := runSystem(opts, wl, "pytorch", workers)
		if err != nil {
			return Table{}, fmt.Errorf("fig7 (%s): %w", wl.Name, err)
		}
		pytorchCost, ok := pytorch.CostToLoss(wl.PrudentLoss)
		if !ok {
			pytorchCost = pytorch.Cost.Total
		}
		for _, frac := range fractions {
			budget := pytorchCost * frac
			for _, system := range systemNames {
				res, err := runSystem(opts, wl, system, workers)
				if err != nil {
					return Table{}, fmt.Errorf("fig7 (%s/%s): %w", wl.Name, system, err)
				}
				// Average spending rate in $/s; affordable runtime under
				// the budget (capped at the run's actual length).
				affordable := res.ExecTime
				if rate := res.Cost.Total / res.ExecTime.Seconds(); res.ExecTime > 0 && rate > 0 {
					affordable = min(affordable, time.Duration(budget/rate*float64(time.Second)))
				}
				loss, _ := res.LossAtTime(affordable)
				costPrudent := "-"
				if c, ok := res.CostToLoss(wl.PrudentLoss); ok {
					costPrudent = fmt.Sprintf("%.4f", c)
				}
				t.Rows = append(t.Rows, []string{
					wl.Name,
					fmt.Sprintf("%.4f", budget),
					system,
					affordable.Round(time.Second).String(),
					fmt.Sprintf("%.4f", loss),
					costPrudent,
				})
			}
		}
	}
	return t, nil
}
