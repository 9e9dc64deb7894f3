package experiments

import (
	"fmt"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/core"
	"mlless/internal/cost"
	"mlless/internal/exchange"
	"mlless/internal/trace"
)

// exchangePoint is one cell of the sweep grid: pool size, sparsity
// regime and step budget. Sparsity is the second axis: BSP moves every
// coordinate, ISP at the workload's v moves only the significant ones,
// which shrinks the payloads the tree folds. The big
// pools run fewer steps — the frontier compares strategies within a
// point, where every strategy sees the same budget.
type exchangePoint struct {
	workers int
	sync    consistency.Mode
	steps   int
}

// exchangePoints returns the sweep grid. The pool sizes bracket the
// crossover: at P <= 16 the parameter server wins both axes, around
// P = 64 tree-reduce catches it on time, and by P = 128 (dense) the
// KV tier's serialized P-1 pulls cost more than tree's request fees.
func exchangePoints(opts Options) []exchangePoint {
	grid := []exchangePoint{
		{8, consistency.BSP, 300},
		{8, consistency.ISP, 300},
		{16, consistency.BSP, 300},
		{16, consistency.ISP, 300},
		{64, consistency.BSP, 120},
		{128, consistency.BSP, 80},
		{128, consistency.ISP, 80},
	}
	if opts.Quick {
		grid = grid[:2]
		for i := range grid {
			grid[i].steps = 60
		}
	}
	return grid
}

// AblExchange sweeps the two gradient-exchange strategies over pool
// size and update sparsity, emitting a time/cost frontier per point. The
// paper's parameter server routes every update through the KV tier — P-1
// serialized reads per worker per step, the §3.2 indirect-communication
// tax — while the tree reduces through the object store: O(P) requests
// per step at class-A/B COS fees, but log_f(P) sequential levels. Which
// corner of the (time, $) plane wins depends on P and on how many bytes
// the ISP filter lets through.
func AblExchange(opts Options) (Table, error) {
	wl, _ := ablWorkload(opts)
	t := Table{
		ID:    "abl-exchange",
		Title: "Gradient-exchange strategy vs pool size and sparsity: time/cost frontier",
		Header: []string{"model", "P", "sync", "exchange", "exec-time", "mean-xchg",
			"steps", "cost-$", "perf-per-$", "converged"},
		Notes: []string{
			"mean-xchg is the traced per-step mean of publish + reduce + pull (the full exchange path)",
			"tree bills COS class A/B request fees (cos-*-requests components); the parameter server bills none",
			"ISP rows run the significance filter at the workload's v, shrinking the payloads the tree moves",
		},
	}
	for _, pt := range exchangePoints(opts) {
		for _, kind := range []string{exchange.KindParamServer, exchange.KindTree} {
			cl, job := wl.Make(pt.workers)
			job.Spec.Sync = pt.sync
			if pt.sync == consistency.ISP {
				job.Spec.Significance = wl.V
			}
			job.Spec.Exchange = kind
			job.Spec.MaxSteps = pt.steps
			// Trace every point: mean-xchg reads the per-step phase
			// decomposition, which only traced runs populate.
			job.Trace = trace.New()
			label := fmt.Sprintf("abl-exchange-%s-p%d-%v-%s", wl.Name, pt.workers, pt.sync, kind)
			res, err := runJob(opts, cl, job, label)
			if err != nil {
				return Table{}, fmt.Errorf("abl-exchange (%s): %w", label, err)
			}
			t.Rows = append(t.Rows, []string{
				wl.Name,
				fmt.Sprintf("%d", pt.workers),
				fmt.Sprintf("%v", pt.sync),
				kind,
				res.ExecTime.Round(time.Millisecond).String(),
				meanExchange(res.StepPhases).Round(time.Microsecond).String(),
				fmt.Sprintf("%d", res.Steps),
				fmt.Sprintf("%.4f", res.Cost.Total),
				fmt.Sprintf("%.2f", cost.PerfPerDollar(res.ExecTime, res.Cost.Total)),
				fmt.Sprintf("%v", res.Converged),
			})
		}
	}
	return t, nil
}

// meanExchange averages the full exchange path — publish, collective
// reduction rounds and pull — over a run's traced step decomposition.
func meanExchange(phases []core.StepPhase) time.Duration {
	if len(phases) == 0 {
		return 0
	}
	var total time.Duration
	for _, p := range phases {
		total += p.Publish + p.Reduce + p.Pull
	}
	return total / time.Duration(len(phases))
}
