package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"mlless/internal/core"
	"mlless/internal/faas"
	"mlless/internal/tenant"
)

// AblTenancy exercises the multi-tenant control plane (DESIGN.md §14):
// a seeded synthetic arrival trace over the LR/SVM/PMF workload zoo is
// admitted onto one shared substrate under per-tenant concurrency
// quotas inside a deliberately tight platform cap. The experiment
// reports aggregate throughput, Jain's fairness index over per-tenant
// mean slowdowns, and tail job-completion latency, and checks the
// platform's bill splits exactly across tenants.
//
// Quick runs a 12-job trace; the full trace is 60 jobs (the ISSUE's
// >= 50). Both are pure functions of the seed: the control-plane event
// log is byte-identical across runs (CI pins this via mlless-fleet).
//
// The experiment also sweeps the fleet's host worker pool over 1, 2, 4
// and 8 goroutines, re-running the identical trace at each width and
// recording the wall clock: the speedup column is the tentpole's
// deliverable, and the event log is byte-compared across widths so the
// sweep doubles as a determinism check.
func AblTenancy(opts Options) (Table, error) {
	jobs := 60
	if opts.Quick {
		jobs = 12
	}
	const (
		seed    = 2026
		platCap = 14
		meanGap = 1500 * time.Millisecond
	)

	tenants := []tenant.Tenant{
		{Name: "t1", Quota: 10},
		{Name: "t2", Quota: 10},
		{Name: "t3", Quota: 7},
		{Name: "t4", Quota: 7},
	}
	names := make([]string, len(tenants))
	for i, t := range tenants {
		names[i] = t.Name
	}

	// One fresh substrate per sweep point — the trace, templates and
	// staging are all pure functions of the seed, so every width replays
	// the identical fleet. Only tenant.Run is timed: staging and dataset
	// generation are setup, not the subject.
	pars := []int{1, 2, 4, 8}
	walls := make([]time.Duration, len(pars))
	var rep *tenant.Report
	var cl *core.Cluster
	var baseLog string
	for i, par := range pars {
		cl = core.NewCluster()
		pcfg := cl.Platform.Config()
		pcfg.MaxConcurrent = platCap
		cl.Platform = faas.NewPlatformWithRegistry(pcfg, cl.Metrics)
		mix := ZooTemplates(cl, 120)
		arrivals, err := tenant.GenerateArrivals(seed, names, mix, jobs, meanGap)
		if err != nil {
			return Table{}, fmt.Errorf("abl-tenancy: %w", err)
		}
		t0 := time.Now()
		rep, err = tenant.Run(tenant.Config{Cluster: cl, Tenants: tenants, Arrivals: arrivals, HostPar: par})
		if err != nil {
			return Table{}, fmt.Errorf("abl-tenancy: host-par %d: %w", par, err)
		}
		walls[i] = time.Since(t0)

		var log strings.Builder
		if err := rep.WriteEvents(&log); err != nil {
			return Table{}, fmt.Errorf("abl-tenancy: %w", err)
		}
		if i == 0 {
			baseLog = log.String()
		} else if log.String() != baseLog {
			return Table{}, fmt.Errorf("abl-tenancy: host-par %d event log diverged from host-par %d", par, pars[0])
		}
	}

	// The billing invariant the control plane exists to keep: tenant
	// function-time shares sum to the platform's own meter exactly.
	if platform := cl.Platform.BilledFunctionSeconds(); rep.FunctionTime != platform {
		return Table{}, fmt.Errorf("abl-tenancy: tenant bills sum to %v, platform metered %v",
			rep.FunctionTime, platform)
	}

	t := Table{
		ID:     "abl-tenancy",
		Title:  "Multi-tenant control plane: fairness, tail latency, per-tenant billing",
		Header: []string{"tenant", "jobs", "func-time", "func-$", "mean-slowdown", "max-wait"},
		Notes: []string{
			fmt.Sprintf("%d jobs over %d tenants, platform cap %d activations, mean inter-arrival %v (seed %d)",
				jobs, len(tenants), platCap, meanGap, seed),
			fmt.Sprintf("throughput %.1f jobs/h over makespan %v; Jain fairness %.4f; completion latency p50 %v, p99 %v; %d workers handed back under contention",
				rep.ThroughputPerHour, rep.Makespan.Round(time.Millisecond), rep.Jain,
				rep.P50Latency.Round(time.Millisecond), rep.P99Latency.Round(time.Millisecond), rep.ScaleIns),
			"per-tenant func-time sums exactly to the platform's billed function seconds (checked every run)",
			hostParNote(pars, walls),
		},
	}
	for _, tr := range rep.Tenants {
		t.Rows = append(t.Rows, []string{
			tr.Name,
			fmt.Sprintf("%d", tr.Jobs),
			tr.FunctionTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.6f", tr.FunctionDollars),
			fmt.Sprintf("%.3f", tr.MeanSlowdown),
			tr.MaxWait.Round(time.Millisecond).String(),
		})
	}
	return t, nil
}

// ZooTemplates stages the quick LR/SVM/PMF workload zoo onto the shared
// cluster (one bucket per workload) and returns one fleet template per
// workload at staggered pool widths (2, 3, 4 workers), so arrival
// demands differ. Jobs run to their workload's convergence target under
// the given step bound. Shared by abl-tenancy and mlless-fleet.
func ZooTemplates(cl *core.Cluster, maxSteps int) []tenant.Template {
	zoo := []*Workload{LRCriteo(true), SVMCriteo(true), PMF1M(true)}
	mix := make([]tenant.Template, len(zoo))
	for i, w := range zoo {
		w := w
		w.stage()
		w.restage(cl)
		workers := 2 + i
		mix[i] = tenant.Template{
			Name:   w.Name,
			Weight: 1,
			New: func() core.Job {
				job := w.job(workers, w.numBatch, w.BatchSize)
				job.Spec.MaxSteps = maxSteps
				return job
			},
		}
	}
	return mix
}

// hostParNote summarizes the host-parallelism sweep for the table.
func hostParNote(pars []int, walls []time.Duration) string {
	var b strings.Builder
	b.WriteString("host-parallelism sweep (identical trace, byte-identical event log):")
	for i, par := range pars {
		fmt.Fprintf(&b, " par=%d %v (%.2fx)", par, walls[i].Round(time.Millisecond), speedup(walls, i))
	}
	fmt.Fprintf(&b, " on %d host cores", runtime.NumCPU())
	return b.String()
}

// speedup is walls[0]/walls[i], the sweep's wall-clock gain over the
// single-goroutine run.
func speedup(walls []time.Duration, i int) float64 {
	if walls[i] <= 0 {
		return 0
	}
	return float64(walls[0]) / float64(walls[i])
}
