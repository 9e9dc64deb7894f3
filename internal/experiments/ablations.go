package experiments

import (
	"fmt"
	"time"

	"mlless/internal/allreduce"
	"mlless/internal/baseline/serverful"
	"mlless/internal/consistency"
	"mlless/internal/core"
	"mlless/internal/exchange"
	"mlless/internal/faults"
	"mlless/internal/knee"
	"mlless/internal/netmodel"
)

// Ablation experiments quantify the design choices DESIGN.md calls out.
// They go beyond the paper's figures: each one removes or swaps a single
// mechanism and measures what it was buying.

// ablWorkload picks the PMF job ablations run on.
func ablWorkload(opts Options) (*Workload, int) { return PMF10M(opts.Quick), pick(opts, 12, 8) }

// AblFilter compares the paper's accumulate-and-flush significance
// filter against (a) dropping insignificant updates and (b) a constant
// (non-decaying) threshold, at the same v.
func AblFilter(opts Options) (Table, error) {
	wl, workers := ablWorkload(opts)
	var points []point
	for _, variant := range []consistency.Variant{consistency.Accumulate, consistency.Drop, consistency.NoDecay} {
		points = append(points, point{key: []string{variant.String()}, wl: wl, workers: workers,
			edit: func(s *core.Spec) { isp(s, wl); s.FilterVariant, s.MaxSteps = variant, pick(opts, 2000, 600) }})
	}
	return sweep(opts, Table{
		ID:     "abl-filter",
		Title:  "Significance-filter design: accumulate (paper) vs drop vs constant threshold",
		Header: []string{"variant", "exec-time", "steps", "final-loss", "update-MB", "converged"},
		Notes:  []string{"same v for all variants; the paper's design encodes the complete history of withheld updates (§4.1)"},
	}, points)
}

// AblKnee swaps the knee detector driving the auto-tuner: the paper's
// slope-threshold heuristic vs Kneedle [34].
func AblKnee(opts Options) (Table, error) {
	wl, workers := ablWorkload(opts)
	var points []point
	for _, d := range []struct {
		name string
		det  knee.Detector
	}{{"slope-threshold", knee.SlopeThreshold{}}, {"kneedle", knee.Kneedle{}}} {
		points = append(points, point{key: []string{d.name}, wl: wl, workers: workers, edit: func(s *core.Spec) {
			isp(s, wl)
			s.AutoTune, s.Sched = true, schedConfig(opts)
			s.Sched.Knee = d.det
		}})
	}
	return sweep(opts, Table{
		ID:     "abl-knee",
		Title:  "Auto-tuner knee detector: slope threshold (paper default) vs Kneedle",
		Header: []string{"detector", "exec-time", "cost-$", "perf-per-$", "removals", "converged"},
	}, points)
}

// AblMerge measures the one-shot model-merge at eviction (§4.2): with
// it, a leaving worker's withheld (non-significant) updates survive;
// without it, they are lost.
func AblMerge(opts Options) (Table, error) {
	wl, workers := ablWorkload(opts)
	var points []point
	for _, merge := range []bool{true, false} {
		points = append(points, point{key: []string{fmt.Sprint(merge)}, wl: wl, workers: workers, edit: func(s *core.Spec) {
			isp(s, wl)
			s.AutoTune, s.Sched, s.NoEvictionMerge = true, schedConfig(opts), !merge
		}})
	}
	return sweep(opts, Table{
		ID:     "abl-merge",
		Title:  "Eviction reintegration: replica merge (paper) vs discard",
		Header: []string{"merge", "exec-time", "steps", "final-loss", "removals", "converged"},
	}, points)
}

// AblAllReduce compares the serverful baseline's ring all-reduce against
// the naive gather/broadcast for the dense gradient sizes of the three
// Table-1 models — the communication-topology advantage FaaS forfeits
// (§2: indirect communication "prevents exploiting HPC communication
// topologies ... such as tree-structured and ring-structured all-reduce").
func AblAllReduce(opts Options) (Table, error) {
	link := netmodel.VMPeerLink()
	sizes := []struct {
		name  string
		bytes int
	}{
		{"LR-Criteo (0.8 MB)", 800_000},
		{"PMF-ML10M (2.3 MB)", 2_300_000},
		{"PMF-ML20M (4.6 MB)", 4_600_000},
	}
	workerCounts := []int{4, 8, 12, 24, 48}
	if opts.Quick {
		workerCounts = []int{8, 24}
	}
	t := Table{
		ID:     "abl-allreduce",
		Title:  "Ring vs naive all-reduce time for dense gradients (VM cluster)",
		Header: []string{"gradient", "workers", "ring", "naive", "ring-advantage"},
	}
	for _, sz := range sizes {
		for _, p := range workerCounts {
			ring := allreduce.RingTime(link, p, sz.bytes)
			naive := allreduce.NaiveTime(link, p, sz.bytes)
			adv := "-"
			if ring > 0 {
				adv = fmt.Sprintf("%.1fx", naive.Seconds()/ring.Seconds())
			}
			t.Rows = append(t.Rows, []string{
				sz.name, fmt.Sprintf("%d", p),
				ring.Round(time.Microsecond).String(),
				naive.Round(time.Microsecond).String(),
				adv,
			})
		}
	}
	return t, nil
}

// AblStartup adds back the startup times every comparison excludes
// (§7): >60 s VM boot for the PyTorch cluster vs sub-second function
// cold starts for MLLess — serverless's hidden advantage for short jobs.
func AblStartup(opts Options) (Table, error) {
	wl, workers := ablWorkload(opts)

	cl, job := wl.Make(workers)
	isp(&job.Spec, wl)
	mlless, err := runJob(opts, cl, job, "abl-startup-mlless")
	if err != nil {
		return Table{}, fmt.Errorf("abl-startup: %w", err)
	}
	cl2, job2 := wl.Make(workers)
	cfg := serverful.DefaultConfig()
	pytorch, err := serverful.Train(cl2.COS, job2, cfg)
	if err != nil {
		return Table{}, fmt.Errorf("abl-startup: %w", err)
	}

	t := Table{
		ID:     "abl-startup",
		Title:  "Including startup time (excluded from every §6 comparison, as in the paper)",
		Header: []string{"system", "startup", "time-to-target", "with-startup"},
		Notes:  []string{"a 6-VM PyTorch cluster takes >1 min to boot (§7); functions cold-start in <1 s"},
	}
	for _, sys := range []struct {
		name    string
		startup time.Duration
		res     *core.Result
	}{{"mlless+isp", cl.Platform.Config().ColdStart, mlless}, {"pytorch", cfg.BootTime, pytorch}} {
		at, _ := sys.res.TimeToLoss(wl.TargetLoss)
		t.Rows = append(t.Rows, []string{sys.name, sys.startup.String(),
			at.Round(time.Millisecond).String(), (at + sys.startup).Round(time.Millisecond).String()})
	}
	return t, nil
}

// AblSSP sweeps the SSP staleness bound — the relaxation the paper notes
// is "easy enough to integrate" (§3.1) but leaves as future flexibility.
func AblSSP(opts Options) (Table, error) {
	wl, workers := ablWorkload(opts)
	var points []point
	for _, k := range pick(opts, []int{1, 2, 4, 8}, []int{1, 4}) {
		points = append(points, point{key: []string{fmt.Sprint(k)}, wl: wl, workers: workers,
			edit: func(s *core.Spec) { isp(s, wl); s.Staleness, s.MaxSteps = k, pick(opts, 2000, 600) }})
	}
	return sweep(opts, Table{
		ID:     "abl-ssp",
		Title:  "SSP staleness sweep (1 = the paper's per-step synchronization)",
		Header: []string{"staleness", "exec-time", "steps", "final-loss", "converged"},
	}, points)
}

// AblFaults measures what surviving an unreliable substrate costs: the
// same PMF job runs under increasing fault intensity — transient
// invocation failures, cold-start stragglers, mid-run container
// reclamation and KV/broker fault delays all scaled together — and the
// overhead surfaces as recovery time and dollars. Injection is seeded,
// so every row is exactly reproducible.
func AblFaults(opts Options) (Table, error) {
	wl, workers := ablWorkload(opts)
	// The top rate is harsh enough that container reclamations land even
	// in short quick-mode runs, so the recovery path shows up in the
	// deaths/recovery-s columns rather than only as slower operations.
	var points []point
	for _, rate := range []float64{0, 0.02, 0.05, 0.10, 0.25} {
		points = append(points, point{key: []string{fmt.Sprintf("%.2f", rate)}, wl: wl, workers: workers, edit: func(s *core.Spec) {
			s.MaxSteps = pick(opts, 1200, 400)
			s.Faults = faults.Spec{
				Seed:           7,
				InvokeFailProb: rate, StragglerProb: rate, ReclaimProb: rate,
				ReclaimMeanLife: 8 * time.Second, // short enough to land inside a ~20 s quick run
				KVFailProb:      rate / 10, KVSlowProb: rate / 10,
				MQFailProb: rate / 10, MQSlowProb: rate / 10,
			}
		}})
	}
	return sweep(opts, Table{
		ID:     "abl-faults",
		Title:  "Fault injection: cost/time overhead vs failure rate",
		Header: []string{"fail-rate", "exec-time", "cost-$", "deaths", "retries", "recovery-s", "converged"},
		Notes: []string{
			"fail-rate scales invocation failures, stragglers, container reclamation and KV/broker faults together",
			"recovery-s is restart + recompute time; its dollars are inside the worker lines (memo component)",
		},
	}, points)
}

// AblAsync compares the journal version's event-driven asynchronous
// schedule against the paper's barrier-driven modes on the same PMF
// workload: BSP, ISP, async at staleness caps 1 and 4 (cap 1 reproduces
// BSP's update sequence without its barriers), and async composed with
// the ISP significance filter.
func AblAsync(opts Options) (Table, error) {
	wl, workers := ablWorkload(opts)
	// Seeded per-operation jitter separates the schedules: under a global
	// barrier the pool pays Σ_steps max_workers(delay) while the
	// announcement-driven schedule pays ~max_workers Σ_steps(delay) —
	// transient slowness no longer stalls the whole pool.
	jitter := faults.Spec{Seed: 17, KVSlowProb: 0.15, MQSlowProb: 0.15}
	var points []point
	for _, row := range []struct {
		name     string
		sync     consistency.Mode
		v        float64
		cap      int
		fs       faults.Spec
		fullOnly bool // skipped in quick mode to keep the sweep short
	}{
		{"bsp", consistency.BSP, 0, 1, faults.Spec{}, false},
		{"isp", consistency.ISP, wl.V, 1, faults.Spec{}, true},
		{"async-k1", consistency.Async, 0, 1, faults.Spec{}, false},
		{"async-k4", consistency.Async, 0, 4, faults.Spec{}, true},
		{"async-k4+isp", consistency.Async, wl.V, 4, faults.Spec{}, false},
		{"bsp+jitter", consistency.BSP, 0, 1, jitter, false},
		{"async-k4+jitter", consistency.Async, 0, 4, jitter, false},
	} {
		if opts.Quick && row.fullOnly {
			continue
		}
		points = append(points, point{key: []string{row.name}, wl: wl, workers: workers, edit: func(s *core.Spec) {
			s.Sync, s.Significance, s.Staleness = row.sync, row.v, row.cap
			s.Faults, s.MaxSteps = row.fs, pick(opts, 2000, 600)
		}})
	}
	return sweep(opts, Table{
		ID:     "abl-async",
		Title:  "Barrier-free async schedule vs BSP/ISP (cap 1 = BSP's update sequence, no barriers)",
		Header: []string{"mode", "exec-time", "steps", "final-loss", "cost-$", "perf-per-$", "converged"},
		Notes: []string{
			"async bounds replica drift by the staleness cap K; workers pull peer updates as announced instead of at a barrier",
			"+jitter rows inject seeded per-operation KV/MQ slowdowns: a barrier pays every step's slowest worker, async pays each worker's own sum",
		},
	}, points)
}

// AblExchange sweeps the two gradient-exchange strategies over pool
// size and update sparsity, emitting a time/cost frontier per point. The
// paper's parameter server routes every update through the KV tier — P-1
// serialized reads per worker per step, the §3.2 indirect-communication
// tax — while the tree reduces through the object store: O(P) requests
// per step at class-A/B COS fees, but log_f(P) sequential levels. Which
// corner of the (time, $) plane wins depends on P and on how many bytes
// the ISP filter lets through (BSP moves every coordinate). The pool
// sizes bracket the crossover: at P <= 16 the parameter server wins both
// axes, around P = 64 tree-reduce catches it on time, and by P = 128
// (dense) the KV tier's P-1 pulls cost more than tree's request fees.
// The big pools run fewer steps; strategies compete within a grid point.
func AblExchange(opts Options) (Table, error) {
	wl, _ := ablWorkload(opts)
	grid := []struct {
		workers int
		sync    consistency.Mode
		steps   int
	}{
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
	var points []point
	for _, g := range grid {
		for _, kind := range []string{exchange.KindParamServer, exchange.KindTree} {
			// Every point is traced: mean-xchg reads the per-step phase
			// decomposition, which only traced runs populate.
			points = append(points, point{key: []string{wl.Name, fmt.Sprint(g.workers), fmt.Sprint(g.sync), kind},
				wl: wl, workers: g.workers, traced: true, edit: func(s *core.Spec) {
					// BSP ignores the significance threshold.
					s.Sync, s.Significance, s.Exchange, s.MaxSteps = g.sync, wl.V, kind, g.steps
				}})
		}
	}
	return sweep(opts, Table{
		ID:    "abl-exchange",
		Title: "Gradient-exchange strategy vs pool size and sparsity: time/cost frontier",
		Header: []string{"model", "P", "sync", "exchange", "exec-time", "mean-xchg",
			"steps", "cost-$", "perf-per-$", "converged"},
		Notes: []string{
			"mean-xchg is the traced per-step mean of publish + reduce + pull (the full exchange path)",
			"tree bills COS class A/B request fees (cos-*-requests components); the parameter server bills none",
			"ISP rows run the significance filter at the workload's v, shrinking the payloads the tree moves",
		},
	}, points)
}
