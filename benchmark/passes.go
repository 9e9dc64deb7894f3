package main

import (
	"fmt"
	"time"

	"mlless"
	"mlless/internal/dataset"
	"mlless/internal/fit"
	"mlless/internal/knee"
	"mlless/internal/vclock"
)

// minReps is the fewest timed repetitions a pass reports on: quartiles
// need three points.
const minReps = 3

// accounting sums operations over the repetitions of a pass and checks
// every repetition's digest against the reference's.
type accounting struct {
	ref               string
	attempted, failed int
}

func (a *accounting) add(o outcome) {
	a.attempted += o.attempted
	a.failed += o.failed
	if a.ref == "" {
		a.ref = o.digest
	} else if o.digest != a.ref {
		// A repetition whose outputs differ is wrong as a whole.
		a.failed += o.attempted - o.failed
	}
}

func (a *accounting) result(name string) workloadResult {
	return workloadResult{Name: name, Correct: a.failed == 0, Attempted: a.attempted, Failed: a.failed, Digest: a.ref}
}

// timedReps runs one discarded warm-up and then untraced timed
// repetitions for budget — at least least of them, never starting one
// that would overrun the budget. It returns the warm-up's outcome.
func timedReps(w workload, st *staged, least int, budget time.Duration, acct *accounting) (outcome, []hostSample, error) {
	ref, _, err := st.runOnce(w, runOpts{})
	if err != nil {
		return ref, nil, err
	}
	acct.add(ref)
	var samples []hostSample
	start := time.Now()
	var last time.Duration
	for len(samples) < least || time.Since(start)+last <= budget {
		it := time.Now()
		out, hs, err := st.runOnce(w, runOpts{})
		if err != nil {
			return ref, nil, err
		}
		acct.add(out)
		samples = append(samples, hs)
		last = time.Since(it)
	}
	return ref, samples, nil
}

func wallSeconds(samples []hostSample) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.wall.Seconds()
	}
	return xs
}

// stageRepeatedly runs the set-up several times — until 25 repetitions
// or one second, at least five — so setup_s is a median.
func stageRepeatedly(w workload, seed uint64, sc scale) (*staged, dist, error) {
	var times []float64
	var st *staged
	var total time.Duration
	for len(times) < 5 || (len(times) < 25 && total < time.Second) {
		t0 := time.Now()
		var err error
		if st, err = w.stage(seed, sc); err != nil {
			return nil, dist{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	return st, summarize(times), nil
}

// endToEndPass measures the user-visible numbers with tracing off.
func endToEndPass(w workload, seed uint64, sc scale, budget time.Duration) (workloadResult, error) {
	st, setup, err := stageRepeatedly(w, seed, sc)
	if err != nil {
		return workloadResult{}, err
	}
	var acct accounting
	ref, samples, err := timedReps(w, st, minReps, budget, &acct)
	if err != nil {
		return workloadResult{}, err
	}
	wall := summarize(wallSeconds(samples))
	allocs := make([]float64, len(samples))
	rate := make([]float64, len(samples))
	for i, s := range samples {
		allocs[i] = float64(s.allocBytes) / 1e6
		rate[i] = float64(ref.workerSteps) / s.wall.Seconds()
	}
	res := acct.result(w.name)
	dists := map[string]dist{
		"setup_s":                 setup,
		"host_wall_s":             wall,
		"host_worker_steps_per_s": summarize(rate),
		"host_alloc_mb":           summarize(allocs),
		"sim_makespan_s":          exact(ref.makespan.Seconds()),
		"sim_cost_usd":            exact(ref.cost),
		"sim_final_loss":          exact(ref.finalLoss),
		"sim_latency_p99_s":       exact(ref.p99.Seconds()),
		"sim_jain":                exact(ref.jain),
		"ok_share":                exact(1 - float64(acct.failed)/float64(acct.attempted)),
	}
	res.EndToEnd = make(map[string]metric, len(endToEndDefs))
	for _, def := range endToEndDefs {
		d := dists[def.name]
		res.EndToEnd[def.name] = metric{Value: d.Median, Unit: def.unit, Dist: &d}
	}
	return res, nil
}

// tracedPass yields the per-layer numbers: untraced repetitions for the
// CPU accounting, then what the workload kind allows — a traced
// repetition and the layer replay for a single job; the HostPar 1
// repetition and solo runs for a fleet, which a tracer would force
// onto its serial loop.
func tracedPass(w workload, seed uint64, sc scale, budget time.Duration, rec *recorder) (workloadResult, error) {
	resetPeakRSS()
	st, err := w.stage(seed, sc)
	if err != nil {
		return workloadResult{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	var acct accounting
	ref, samples, err := timedReps(w, st, 2, budget/4, &acct)
	if err != nil {
		return workloadResult{}, err
	}
	lv := layerValues{}
	untraced := summarize(wallSeconds(samples)).Median
	var cpuPerWS, par []float64
	for _, s := range samples {
		cpuPerWS = append(cpuPerWS, s.cpuMicrosPer(ref.workerSteps))
		par = append(par, s.cpu.Seconds()/s.wall.Seconds())
	}
	lv["core.cpu_us_per_worker_step"] = summarize(cpuPerWS).Median
	lv["core.parallelism"] = summarize(par).Median
	lv["core.steps"] = float64(ref.steps)
	lv["core.worker_steps"] = float64(ref.workerSteps)
	if st.stageTime > 0 {
		lv["dataset.stage_mb_per_s"] = float64(st.stagedBytes) / 1e6 / st.stageTime.Seconds()
	}

	if w.fleet {
		err = fleetLayers(w, st, lv, ref, untraced, &acct)
	} else {
		err = jobLayers(w, st, seed, sc, lv, untraced, samples[len(samples)-1], &acct, rec)
	}
	if err != nil {
		return workloadResult{}, err
	}
	lv["core.peak_rss_mb"] = peakRSSMB()

	res := acct.result(w.name)
	res.PerLayer = make(map[string]metric, len(perLayerDefs))
	for _, def := range perLayerDefs {
		res.PerLayer[def.name] = metric{Value: lv[def.name], Unit: def.unit}
	}
	return res, nil
}

// jobLayers fills the per-layer values of a single-job workload.
// before is the last untraced repetition's host sample.
func jobLayers(w workload, st *staged, seed uint64, sc scale, lv layerValues, untraced float64, before hostSample, acct *accounting, rec *recorder) error {
	// T: one traced repetition. Its results must equal the untraced ones.
	traced, hs, err := st.runOnce(w, runOpts{trace: true})
	if err != nil {
		return err
	}
	acct.add(traced)
	lv["trace.overhead_pct"] = (hs.wall.Seconds()/untraced - 1) * 100
	lv["trace.events"] = float64(traced.tracer.Len())
	lv.fromCounters(traced.counters)
	lv.fromResult(traced.res)
	lv["faas.billed_s"] = traced.cl.Platform.BilledFunctionSeconds().Seconds()

	// R: the layer replay, as long as the run itself — per-call cost
	// drifts over a run (the ISP residual fills up, the flush ratio
	// rises), so a prefix would misstate the shares.
	stats, err := replay(st, rec, 0, min(sc.replaySteps, traced.res.Steps))
	if err != nil {
		return err
	}
	// This host's speed drifts by tens of percent over minutes, so the
	// engine's CPU per worker-step the replay is held against is taken
	// on both sides of it: the last untraced repetition before, one more
	// after.
	after, hs, err := st.runOnce(w, runOpts{})
	if err != nil {
		return err
	}
	acct.add(after)
	engineCPU := (before.cpuMicrosPer(after.workerSteps) + hs.cpuMicrosPer(after.workerSteps)) / 2
	lv.fromReplay(rec.spans, stats, engineCPU)

	// Micro-measurements on the run's own data.
	meanPayload := int(stats.updateBytes) / stats.workerSteps
	lv["kvstore.set_get_ns"] = kvSetGet(meanPayload)
	losses := make([]float64, len(traced.res.History))
	ts := make([]float64, len(losses))
	for i, h := range traced.res.History {
		losses[i], ts[i] = h.Loss, float64(i+1)
	}
	detector := st.job().Spec.Sched.Knee
	if detector == nil {
		detector = knee.SlopeThreshold{}
	}
	lv["fit.fitcurve_us"] = meanMicros(5, func() { _, _ = fit.FitCurve(fit.ReferenceCurve{}, ts, losses, fit.FitOptions{}) })
	lv["knee.detect_us"] = meanMicros(5, func() { detector.Detect(losses) })
	if w.streamProbe {
		if lv["dataset.stream_mb_per_s"], err = streamThroughput(seed, sc.streamSamples); err != nil {
			return err
		}
	}
	return nil
}

// fleetLayers fills the per-layer values of a fleet workload.
func fleetLayers(w workload, st *staged, lv layerValues, ref outcome, untraced float64, acct *accounting) error {
	lv.fromCounters(ref.counters)
	lv.fromReport(ref.rep)
	lv["faas.billed_s"] = ref.cl.Platform.BilledFunctionSeconds().Seconds()
	lv["tenant.us_per_job"] = untraced * 1e6 / float64(len(ref.rep.Jobs))

	// One extra repetition with the fleet's host pool at one goroutine.
	serial, hs, err := st.runOnce(w, runOpts{hostPar: 1})
	if err != nil {
		return err
	}
	acct.add(serial)
	lv["tenant.hostpar1_wall_s"] = hs.wall.Seconds()
	lv["tenant.hostpar_speedup"] = hs.wall.Seconds() / untraced

	// One standalone run of one stamp of each template.
	var solo time.Duration
	for _, tpl := range st.zoo {
		cl := st.freshCluster()
		job := tpl.New()
		var err error
		hs := measure(func() { _, err = mlless.Train(cl, job) })
		if err != nil {
			return fmt.Errorf("%s: solo %s: %w", w.name, tpl.Name, err)
		}
		solo += hs.wall
	}
	lv["tenant.solo_job_ms"] = solo.Seconds() * 1e3 / float64(len(st.zoo))
	return nil
}

// kvSetGet times one Set+Get of a payload-byte value through the KV
// tier's whole op pipeline (link → fault → trace → counter), in ns.
func kvSetGet(payload int) float64 {
	cl := mlless.NewCluster()
	val := make([]byte, payload)
	var clk vclock.Clock
	const n = 2000
	return meanMicros(n, func() {
		cl.Redis.Set(&clk, "bench/k", val)
		cl.Redis.Get(&clk, "bench/k")
	}) * 1e3
}

// meanMicros is the mean wall time of n calls of fn, in µs.
func meanMicros(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
}

// streamThroughput is ROADMAP's "datagen GB/s": Criteo-shaped samples
// streamed into shards that are counted and dropped.
func streamThroughput(seed uint64, samples int) (float64, error) {
	cfg := mlless.DefaultCriteoConfig()
	cfg.Samples, cfg.Seed = samples, seedFor(seed, streamData)
	var sink dataset.CountSink
	t0 := time.Now()
	stats, err := dataset.StreamCriteo(cfg, dataset.StreamConfig{}, &sink)
	if err != nil {
		return 0, fmt.Errorf("stream criteo: %w", err)
	}
	return float64(stats.Bytes) / 1e6 / time.Since(t0).Seconds(), nil
}
