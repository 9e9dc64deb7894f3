package main

// metricDef names one metric. The two tables below are the program's
// copy of BENCHMARK.json's end_to_end and per_layer lists; a test keeps
// them equal. Every metric is reported on every workload: a per-layer
// metric that does not apply (a tenant.* number on a single job, a
// replay number on a fleet) is reported as 0.
type metricDef struct {
	name, unit, better string
}

// The two clocks never share a unit: host metrics are in s, MB, 1/s;
// virtual ("sim") time is in sim_s. Never compare one with the other.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"host_wall_s", "s", "lower"},
	{"host_worker_steps_per_s", "1/s", "higher"},
	{"host_alloc_mb", "MB", "lower"},
	{"sim_makespan_s", "sim_s", "lower"},
	{"sim_cost_usd", "usd", "lower"},
	{"sim_final_loss", "loss", "lower"},
	{"sim_latency_p99_s", "sim_s", "lower"},
	{"sim_jain", "index", "higher"},
	{"ok_share", "ratio", "higher"},
}

var perLayerDefs = []metricDef{
	{"sparse.encode_ns_per_nnz", "ns", "lower"},
	{"sparse.add_encoded_ns_per_nnz", "ns", "lower"},
	{"sparse.add_encoded_sparse_ns_per_nnz", "ns", "lower"},
	{"sparse.update_nnz_mean", "count", "lower"},

	{"model.loss_us", "us", "lower"},
	{"model.gradient_us", "us", "lower"},
	{"model.apply_update_us", "us", "lower"},
	{"model.grad_nnz_mean", "count", "lower"},

	{"optimizer.step_us", "us", "lower"},

	{"consistency.filter_add_us", "us", "lower"},
	{"consistency.flush_ratio", "ratio", "lower"},
	{"consistency.residual_nnz_mean", "count", "lower"},

	{"exchange.publish_us", "us", "lower"},
	{"exchange.round_us", "us", "lower"},
	{"exchange.pull_us", "us", "lower"},
	{"exchange.update_bytes_per_worker_step", "B", "lower"},
	{"exchange.publishes", "count", "lower"},
	{"exchange.pulls", "count", "lower"},
	{"exchange.reduce_rounds", "count", "lower"},

	{"kvstore.sets", "count", "lower"},
	{"kvstore.gets", "count", "lower"},
	{"kvstore.bytes_read_mb", "MB", "lower"},
	{"kvstore.set_get_ns", "ns", "lower"},

	{"msgqueue.published", "count", "lower"},
	{"msgqueue.consumed", "count", "lower"},
	{"msgqueue.fanout_us", "us", "lower"},

	{"objstore.gets", "count", "lower"},
	{"objstore.puts", "count", "lower"},
	{"objstore.bytes_read_mb", "MB", "lower"},
	{"objstore.bytes_written_mb", "MB", "lower"},

	{"dataset.fetch_us", "us", "lower"},
	{"dataset.stage_mb_per_s", "MB/s", "higher"},
	{"dataset.stream_mb_per_s", "MB/s", "higher"},

	{"faas.invocations", "count", "lower"},
	{"faas.cold_starts", "count", "lower"},
	{"faas.billed_s", "sim_s", "lower"},

	{"core.steps", "count", "lower"},
	{"core.worker_steps", "count", "lower"},
	{"core.cpu_us_per_worker_step", "us", "lower"},
	{"core.parallelism", "ratio", "higher"},
	{"core.self_share", "ratio", "lower"},
	{"core.peak_rss_mb", "MB", "lower"},
	{"core.phase_fetch_sim_ms", "sim_ms", "lower"},
	{"core.phase_compute_sim_ms", "sim_ms", "lower"},
	{"core.phase_publish_sim_ms", "sim_ms", "lower"},
	{"core.phase_reduce_sim_ms", "sim_ms", "lower"},
	{"core.phase_pull_sim_ms", "sim_ms", "lower"},
	{"core.phase_barrier_sim_ms", "sim_ms", "lower"},

	{"sched.removals", "count", "higher"},
	{"sched.first_removal_step", "count", "lower"},
	{"sched.workers_final", "count", "lower"},
	{"fit.fitcurve_us", "us", "lower"},
	{"knee.detect_us", "us", "lower"},

	{"tenant.jobs", "count", "higher"},
	{"tenant.us_per_job", "us", "lower"},
	{"tenant.solo_job_ms", "ms", "lower"},
	{"tenant.hostpar1_wall_s", "s", "lower"},
	{"tenant.hostpar_speedup", "ratio", "higher"},
	{"tenant.scale_ins", "count", "lower"},
	{"tenant.mean_wait_s", "sim_s", "lower"},
	{"tenant.max_wait_s", "sim_s", "lower"},
	{"tenant.throughput_jobs_per_sim_h", "1/sim_h", "higher"},

	{"trace.overhead_pct", "%", "lower"},
	{"trace.events", "count", "lower"},

	{"cost.function_usd", "usd", "lower"},
	{"cost.vm_usd", "usd", "lower"},
	{"cost.request_usd", "usd", "lower"},
}

// metric is one reported value. Dist is filled for end-to-end metrics
// in result files; the contract's result line carries value and unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Dist  *dist   `json:"dist,omitempty"`
}

// workloadResult is one workload's block of a result file.
type workloadResult struct {
	Name      string            `json:"name"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digest    string            `json:"digest"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host      hostInfo         `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Smoke     bool             `json:"smoke"`
	Workloads []workloadResult `json:"workloads"`
}
