package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/core"
	"mlless/internal/cost"
	"mlless/internal/sched"
	"mlless/internal/trace"
)

// A point is one training run of a sweep and one row of its table.
type point struct {
	// key holds the row's leading cells. Points whose keys agree on all
	// but the last cell form a group; relative columns read its first.
	key     []string
	wl      *Workload
	workers int
	batch   int              // per-worker batch size; 0 keeps wl's staging
	traced  bool             // a tracer fills Result.StepPhases
	edit    func(*core.Spec) // nil runs the workload's own spec
}

// sweep runs one training job per point, in order, and appends one row
// per point to t. The first len(key) names of t.Header head the key
// cells; every later name is a column of the columns table.
func sweep(opts Options, t Table, points []point) (Table, error) {
	var first *core.Result
	var group string
	for _, pt := range points {
		cl, job := makeWithBatch(pt.wl, pt.workers, pt.batch)
		if pt.edit != nil {
			pt.edit(&job.Spec)
		}
		if pt.traced {
			job.Trace = trace.New()
		}
		label := t.ID + "-" + strings.Join(pt.key, "-")
		res, err := runJob(opts, cl, job, label)
		if err != nil {
			return Table{}, fmt.Errorf("%s: %w", label, err)
		}
		if g := strings.Join(pt.key[:len(pt.key)-1], "\x00"); first == nil || g != group {
			first, group = res, g
		}
		row := slices.Clone(pt.key)
		for _, name := range t.Header[len(pt.key):] {
			col, ok := columns[name]
			if !ok {
				return Table{}, fmt.Errorf("%s: no column %q", t.ID, name)
			}
			row = append(row, col(res, first))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// columns formats every result column a sweep can name, each once. res
// is the point's result and first the result of its group's first
// point.
var columns = map[string]func(res, first *core.Result) string{
	"exec-time":  func(r, _ *core.Result) string { return r.ExecTime.Round(time.Millisecond).String() },
	"steps":      func(r, _ *core.Result) string { return fmt.Sprint(r.Steps) },
	"final-loss": func(r, _ *core.Result) string { return fmt.Sprintf("%.4f", r.FinalLoss) },
	"cost-$":     func(r, _ *core.Result) string { return fmt.Sprintf("%.4f", r.Cost.Total) },
	"perf-per-$": func(r, _ *core.Result) string { return fmt.Sprintf("%.2f", perfPerDollar(r)) },
	"update-MB":  func(r, _ *core.Result) string { return fmt.Sprintf("%.1f", float64(r.TotalUpdateBytes)/1e6) },
	"removals":   func(r, _ *core.Result) string { return fmt.Sprint(len(r.Removals)) },
	"converged":  func(r, _ *core.Result) string { return fmt.Sprint(r.Converged) },
	"deaths":     func(r, _ *core.Result) string { return fmt.Sprint(r.Recovery.WorkerDeaths) },
	"retries":    func(r, _ *core.Result) string { return fmt.Sprint(r.Recovery.InvokeRetries) },
	"recovery-s": func(r, _ *core.Result) string { return fmt.Sprintf("%.2f", r.Recovery.Overhead().Seconds()) },
	"mean-xchg": func(r, _ *core.Result) string {
		return meanPhase(r.StepPhases, exchangeTime).Round(time.Microsecond).String()
	},
	"normalized": func(r, first *core.Result) string {
		return fmt.Sprintf("%.3f", ratio(r.ExecTime.Seconds(), first.ExecTime.Seconds()))
	},
	"gain": func(r, first *core.Result) string {
		return fmt.Sprintf("%.2fx", ratio(perfPerDollar(r), perfPerDollar(first)))
	},
}

// perfPerDollar is the paper's Perf/$ (§6.2) of one run.
func perfPerDollar(r *core.Result) float64 { return cost.PerfPerDollar(r.ExecTime, r.Cost.Total) }

// ratio is a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b > 0 {
		return a / b
	}
	return 0
}

// meanPhase averages part of a run's traced step decomposition.
func meanPhase(phases []core.StepPhase, part func(core.StepPhase) time.Duration) time.Duration {
	if len(phases) == 0 {
		return 0
	}
	var total time.Duration
	for _, p := range phases {
		total += part(p)
	}
	return total / time.Duration(len(phases))
}

// exchangeTime is a step's full exchange path: publish, collective
// reduction rounds and pull.
func exchangeTime(p core.StepPhase) time.Duration { return p.Publish + p.Reduce + p.Pull }

// pick returns quick in quick mode and full otherwise.
func pick[T any](opts Options, full, quick T) T {
	if opts.Quick {
		return quick
	}
	return full
}

// isp runs a spec under the ISP filter at the workload's v.
func isp(s *core.Spec, wl *Workload) { s.Sync, s.Significance = consistency.ISP, wl.V }

// Fig4 reproduces Fig 4: normalized execution time until convergence as
// the significance threshold v increases, for the three jobs of Table 1.
// The paper's shape: PMF speeds up substantially (up to ≈3x on ML-20M)
// with no convergence side effects, while LR gains little because its
// updates are already small ("the high number of zeroed features ...
// acts as an intrinsic filter in communication").
func Fig4(opts Options) (Table, error) {
	workloads := pick(opts, []*Workload{LRCriteo(false), PMF10M(false), PMF20M(false)},
		[]*Workload{LRCriteo(true), PMF10M(true)})
	var points []point
	for _, wl := range workloads {
		for _, p := range pick(opts, []int{12, 24}, []int{8}) {
			// The largest job is swept at 24 workers only (the paper
			// reports "the trends were similar" across worker counts).
			if wl == PMF20M(opts.Quick) && p != 24 {
				continue
			}
			for _, v := range pick(opts, []float64{0, 0.3, 0.5, 0.7}, []float64{0, 0.7}) {
				points = append(points, point{key: []string{wl.Name, fmt.Sprint(p), fmtF(v)}, wl: wl, workers: p,
					edit: func(s *core.Spec) { s.Sync, s.Significance = consistency.ISP, v }})
			}
		}
	}
	return sweep(opts, Table{
		ID:     "fig4",
		Title:  "Normalized time-to-convergence vs significance threshold v",
		Header: []string{"workload", "workers", "v", "exec-time", "normalized", "update-MB", "converged"},
		Notes: []string{
			"normalized to the v=0 (BSP) run of the same workload and worker count",
			"paper: ML-20M reaches ≈3x speedup at v=0.7; LR gains are small",
		},
	}, points)
}

// Fig5 reproduces Fig 5: the effect of the scale-in auto-tuner on Perf/$
// (bars) and execution time (lines). The paper reports 1.4-1.5x Perf/$
// gains for LR and up to 1.6x for PMF/ML-20M, with execution time
// degrading by at most ≈7% (ML-10M) and usually improving.
func Fig5(opts Options) (Table, error) {
	workloads := pick(opts, []*Workload{LRCriteo(false), PMF10M(false), PMF20M(false)},
		[]*Workload{PMF10M(true)})
	var points []point
	for _, wl := range workloads {
		// The paper sweeps 12 and 24 workers and reports similar trends;
		// the full configuration here uses the headline P = 24.
		for _, p := range pick(opts, []int{24}, []int{8}) {
			for _, tune := range []bool{false, true} {
				points = append(points, point{key: []string{wl.Name, fmt.Sprint(p), fmt.Sprint(tune)}, wl: wl, workers: p,
					edit: func(s *core.Spec) { isp(s, wl); s.AutoTune, s.Sched = tune, schedConfig(opts) }})
			}
		}
	}
	return sweep(opts, Table{
		ID:     "fig5",
		Title:  "Scale-in auto-tuner: Perf/$ and execution time",
		Header: []string{"workload", "workers", "auto-tuner", "exec-time", "cost-$", "perf-per-$", "gain", "removals"},
		Notes: []string{
			"Perf/$ = 1/(exec-time · price), §6.2; gain is vs the same configuration without the tuner",
			"paper: LR gains 1.4-1.5x, PMF up to 1.6x (ML-20M)",
			"scheduling epoch scaled to the ~10x shorter simulated jobs (T=5s, Δ=T/2; paper: T=20s on 400-2000s jobs)",
		},
	}, points)
}

// schedConfig is the auto-tuner configuration of every tuned run. The
// paper uses T=20s, Δ=10s on jobs that run 400-2000s; the simulated
// jobs are ~10x shorter, so the epoch is scaled to keep a comparable
// number of scheduling decisions per job (~33 steps per epoch). Δ
// follows the paper's Δ = T/2.
func schedConfig(opts Options) sched.Config {
	return sched.Config{Epoch: pick(opts, 5*time.Second, 2*time.Second)}
}

// Table3 reproduces Table 3: execution time of LR on Criteo with the
// global batch held constant while workers vary — the paper's evidence
// that LR's poor scaling is statistical, not a system bottleneck
// (execution time stays roughly flat from 12 to 48 workers).
func Table3(opts Options) (Table, error) {
	wl := LRCriteo(opts.Quick)
	base := wl.BatchSize * 12 // the constant global batch P·B
	var points []point
	for _, p := range pick(opts, []int{12, 24, 48}, []int{12, 24}) {
		points = append(points, point{key: []string{fmt.Sprint(p), fmt.Sprint(base / p)}, wl: wl, workers: p, batch: base / p})
	}
	return sweep(opts, Table{
		ID:     "table3",
		Title:  "LR/Criteo execution time with constant global batch (paper Table 3)",
		Header: []string{"workers", "B", "exec-time", "steps", "converged"},
		Notes:  []string{fmt.Sprintf("global batch fixed at %d samples; paper: 437.1s / 395.3s / 426.3s for 12/24/48 workers", base)},
	}, points)
}
