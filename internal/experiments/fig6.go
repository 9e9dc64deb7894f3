package experiments

import (
	"fmt"
	"sync"
	"time"

	"mlless/internal/baseline/pywren"
	"mlless/internal/baseline/serverful"
	"mlless/internal/core"
)

// systemNames in presentation order, as in Fig 6's legend.
var systemNames = []string{"pytorch", "pywren-ibm", "mlless", "mlless+isp", "mlless+all"}

// runKey memoizes system executions shared between Fig 6 and Fig 7.
type runKey struct {
	workload string
	system   string
	workers  int
}

var (
	runMu    sync.Mutex
	runCache = map[runKey]*core.Result{}
)

// runSystem executes one system on one workload until the deep
// ("prudent") convergence threshold, memoizing the result.
func runSystem(opts Options, wl *Workload, system string, workers int) (*core.Result, error) {
	key := runKey{wl.Name, system, workers}
	runMu.Lock()
	res, ok := runCache[key]
	runMu.Unlock()
	if ok {
		return res, nil
	}

	cl, job := wl.Make(workers)
	job.Spec.TargetLoss, job.Spec.MaxSteps = wl.PrudentLoss, pick(opts, 4000, 800)
	label := fmt.Sprintf("fig6-%s-%s-p%d", wl.Name, system, workers)
	var err error
	switch system {
	case "pytorch":
		res, err = serverful.Train(cl.COS, job, serverful.DefaultConfig())
	case "pywren-ibm":
		res, err = pywren.Train(cl.Platform, cl.COS, job, pywren.DefaultConfig())
	case "mlless":
		res, err = runJob(opts, cl, job, label)
	case "mlless+isp", "mlless+all":
		isp(&job.Spec, wl)
		job.Spec.AutoTune, job.Spec.Sched = system == "mlless+all", schedConfig(opts)
		res, err = runJob(opts, cl, job, label)
	default:
		return nil, fmt.Errorf("experiments: unknown system %q", system)
	}
	if err != nil {
		return nil, err
	}
	runMu.Lock()
	runCache[key] = res
	runMu.Unlock()
	return res, nil
}

// Fig6Workloads returns the workloads and worker count of the system
// comparison (paper: P = 24; "the trends were similar for 12 workers").
// Exported so callers can request Fig6Series for each.
func Fig6Workloads(opts Options) ([]*Workload, int) {
	if opts.Quick {
		return []*Workload{PMF10M(true)}, 8
	}
	return []*Workload{LRCriteo(false), PMF10M(false), PMF20M(false)}, 24
}

// Fig6 reproduces Fig 6: loss-vs-time comparison of PyTorch, PyWren-IBM
// and the three MLLess variants. The paper's headline: MLLess reaches
// the prudent loss ≈14.5-15.7x faster than PyTorch on the PMF jobs, and
// PyWren-IBM is "very inefficient in all jobs".
func Fig6(opts Options) (Table, error) {
	workloads, workers := Fig6Workloads(opts)
	t := Table{
		ID:    "fig6",
		Title: "Loss vs time: PyTorch vs PyWren-IBM vs MLLess variants",
		Header: []string{"workload", "system", "time-to-target", "time-to-prudent",
			"speedup-vs-pytorch", "steps", "final-loss"},
		Notes: []string{
			"target = the Fig 4/5 convergence threshold; prudent = the deep threshold of §6.2",
			"paper: MLLess+All ≈ 14.5x (ML-10M) and 15.7x (ML-20M) faster than PyTorch to the prudent loss",
		},
	}
	for _, wl := range workloads {
		var base time.Duration // PyTorch's time to the prudent loss
		for _, system := range systemNames {
			res, err := runSystem(opts, wl, system, workers)
			if err != nil {
				return Table{}, fmt.Errorf("fig6 (%s/%s): %w", wl.Name, system, err)
			}
			prudent, ok := res.TimeToLoss(wl.PrudentLoss)
			speedup := "-"
			if system == "pytorch" && ok {
				base = prudent
			} else if system != "pytorch" && ok && base > 0 {
				speedup = fmt.Sprintf("%.2fx", base.Seconds()/prudent.Seconds())
			}
			t.Rows = append(t.Rows, []string{wl.Name, system, timeTo(res, wl.TargetLoss), timeTo(res, wl.PrudentLoss),
				speedup, columns["steps"](res, res), columns["final-loss"](res, res)})
		}
	}
	return t, nil
}

// timeTo formats the virtual time at which r's smoothed loss first
// reached target, or "n/a".
func timeTo(r *core.Result, target float64) string {
	if t, ok := r.TimeToLoss(target); ok {
		return t.Round(time.Millisecond).String()
	}
	return "n/a"
}

// Fig6Series returns the loss-vs-time trace of every system for one
// workload, sampled at n evenly spaced virtual times — the raw series
// behind Fig 6, for plotting.
func Fig6Series(opts Options, wl *Workload, n int) (Table, error) {
	_, workers := Fig6Workloads(opts)
	results := make(map[string]*core.Result, len(systemNames))
	var longest time.Duration
	for _, system := range systemNames {
		res, err := runSystem(opts, wl, system, workers)
		if err != nil {
			return Table{}, fmt.Errorf("fig6 series (%s/%s): %w", wl.Name, system, err)
		}
		results[system] = res
		longest = max(longest, res.ExecTime)
	}
	t := Table{
		ID:     "fig6-series",
		Title:  fmt.Sprintf("Loss vs time series, %s (P=%d)", wl.Name, workers),
		Header: append([]string{"time"}, systemNames...),
	}
	for i := 1; i <= n; i++ {
		at := longest * time.Duration(i) / time.Duration(n)
		row := []string{at.Round(time.Millisecond).String()}
		for _, system := range systemNames {
			loss, ok := results[system].LossAtTime(at)
			if !ok {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.4f", loss))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
