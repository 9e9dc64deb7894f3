package main

import (
	"time"

	"mlless"
	"mlless/internal/tenant"
)

// layerValues collects per-layer metric values by name.
type layerValues map[string]float64

// fromCounters reads the substrate and exchange counters (T): public
// registry deltas across one repetition.
func (lv layerValues) fromCounters(c map[string]int64) {
	for name, counter := range map[string]string{
		"exchange.publishes":     "xchg.publishes",
		"exchange.pulls":         "xchg.pulls",
		"exchange.reduce_rounds": "xchg.reduce_rounds",
		"kvstore.sets":           "kv.sets",
		"kvstore.gets":           "kv.gets",
		"msgqueue.published":     "mq.published",
		"msgqueue.consumed":      "mq.consumed",
		"objstore.gets":          "obj.gets",
		"objstore.puts":          "obj.puts",
		"faas.invocations":       "faas.invocations",
		"faas.cold_starts":       "faas.cold_starts",
	} {
		lv[name] = float64(c[counter])
	}
	lv["kvstore.bytes_read_mb"] = float64(c["kv.bytes_read"]) / 1e6
	lv["objstore.bytes_read_mb"] = float64(c["obj.bytes_read"]) / 1e6
	lv["objstore.bytes_written_mb"] = float64(c["obj.bytes_written"]) / 1e6
}

// fromResult reads a traced single-job result (T): the virtual-time
// phase means, the tuner's decisions and the bill's components.
func (lv layerValues) fromResult(r *mlless.Result) {
	var bytes int64
	var workerSteps int
	for _, h := range r.History {
		bytes += h.UpdateBytes
		workerSteps += h.Workers
	}
	lv["exchange.update_bytes_per_worker_step"] = float64(bytes) / float64(workerSteps)

	// The six phases sum to the step's virtual duration.
	var fetch, compute, publish, reduce, pull, barrier time.Duration
	for _, ph := range r.StepPhases {
		fetch += ph.Fetch
		compute += ph.Compute
		publish += ph.Publish
		reduce += ph.Reduce
		pull += ph.Pull
		barrier += ph.Barrier
	}
	if n := float64(len(r.StepPhases)); n > 0 {
		ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / n }
		lv["core.phase_fetch_sim_ms"] = ms(fetch)
		lv["core.phase_compute_sim_ms"] = ms(compute)
		lv["core.phase_publish_sim_ms"] = ms(publish)
		lv["core.phase_reduce_sim_ms"] = ms(reduce)
		lv["core.phase_pull_sim_ms"] = ms(pull)
		lv["core.phase_barrier_sim_ms"] = ms(barrier)
	}

	lv["sched.removals"] = float64(len(r.Removals))
	if len(r.Removals) > 0 {
		lv["sched.first_removal_step"] = float64(r.Removals[0].Step)
	}
	if len(r.History) > 0 {
		lv["sched.workers_final"] = float64(r.History[len(r.History)-1].Workers)
	}

	for _, c := range r.Cost.Components {
		switch c.Kind {
		case "function":
			lv["cost.function_usd"] += c.Dollars
		case "vm":
			lv["cost.vm_usd"] += c.Dollars
		case "requests":
			lv["cost.request_usd"] += c.Dollars
		}
	}
}

// fromReport reads a fleet report (T).
func (lv layerValues) fromReport(r *tenant.Report) {
	lv["tenant.jobs"] = float64(len(r.Jobs))
	lv["tenant.scale_ins"] = float64(r.ScaleIns)
	lv["tenant.throughput_jobs_per_sim_h"] = r.ThroughputPerHour
	var sum, worst time.Duration
	for _, j := range r.Jobs {
		sum += j.Wait
		if j.Wait > worst {
			worst = j.Wait
		}
	}
	if len(r.Jobs) > 0 {
		lv["tenant.mean_wait_s"] = sum.Seconds() / float64(len(r.Jobs))
	}
	lv["tenant.max_wait_s"] = worst.Seconds()
	lv["cost.function_usd"] = r.FunctionDollars
}

// fromReplay turns the replay's spans and counts into per-call means
// (R) and closes the account: core.self_share is the part of engineCPU,
// the engine's CPU µs per worker-step, the replayed layer calls do not
// explain — engine, driver, supervisor, substrates' own bookkeeping, GC.
func (lv layerValues) fromReplay(spans []span, st *replayStats, engineCPU float64) {
	totals := totalsByName(spans)
	meanUS := func(name string) float64 {
		t := totals[name]
		if t.calls == 0 {
			return 0
		}
		return float64(t.selfNS) / 1e3 / float64(t.calls)
	}
	perNNZ := func(name string) float64 {
		if st.updateNNZ == 0 {
			return 0
		}
		return float64(totals[name].selfNS) / float64(st.updateNNZ)
	}
	ws := float64(st.workerSteps)

	lv["sparse.encode_ns_per_nnz"] = perNNZ(spanEncode)
	lv["sparse.add_encoded_ns_per_nnz"] = perNNZ(spanAddDense)
	lv["sparse.add_encoded_sparse_ns_per_nnz"] = perNNZ(spanAddSparse)
	lv["sparse.update_nnz_mean"] = float64(st.updateNNZ) / ws
	lv["model.loss_us"] = meanUS(spanLoss)
	lv["model.gradient_us"] = meanUS(spanGrad)
	lv["model.apply_update_us"] = meanUS(spanApply)
	lv["model.grad_nnz_mean"] = float64(st.gradNNZ) / ws
	lv["optimizer.step_us"] = meanUS(spanOpt)
	lv["consistency.filter_add_us"] = meanUS(spanFilter)
	lv["consistency.flush_ratio"] = float64(st.flushed) / float64(st.offered)
	lv["consistency.residual_nnz_mean"] = float64(st.residualNNZ) / ws
	lv["exchange.publish_us"] = meanUS(spanPub)
	lv["exchange.round_us"] = meanUS(spanRound)
	lv["exchange.pull_us"] = meanUS(spanPull)
	lv["msgqueue.fanout_us"] = meanUS(spanFanout)
	lv["dataset.fetch_us"] = meanUS(spanFetch)

	// Layer time is what the step spans' children cover, probes aside.
	var layerNS int64
	for name, t := range totals {
		if name != spanStep && name != spanProbe && !isProbe(name) {
			layerNS += t.selfNS
		}
	}
	lv["core.self_share"] = 1 - float64(layerNS)/1e3/ws/engineCPU
}

func isProbe(name string) bool {
	return name == spanEncode || name == spanAddDense || name == spanAddSparse
}
