// Package serverful implements the paper's IaaS baseline (§6.1): a
// PyTorch-style data-parallel trainer on a cluster of reserved VMs,
// synchronizing dense gradients with Gloo's ring all-reduce every step.
//
// The training mathematics are MLLess's, because Train is a charge over
// the shared loop in package baseline (the §6.1 sanity check). What
// differs is the systems behaviour:
//
//   - gradients travel dense: the all-reduce moves NumParams·8 bytes per
//     step regardless of batch sparsity (Gloo's all-reduce has no sparse
//     path), and the dense optimizer touches every parameter;
//   - the framework pays a sparse-data handling penalty (dense
//     (de)serialization, dense embedding-table scatter), the effect §6.2
//     observes: "PyTorch's speed is affected by the high sparsity of the
//     datasets as it occurs to TensorFlow";
//   - billing is reservation-based: every VM is paid for the whole job,
//     idle or not.
package serverful

import (
	"fmt"
	"time"

	"mlless/internal/allreduce"
	"mlless/internal/baseline"
	"mlless/internal/core"
	"mlless/internal/cost"
	"mlless/internal/netmodel"
	"mlless/internal/objstore"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// Config parameterizes the VM cluster and framework model. Unset fields
// take DefaultConfig's values.
type Config struct {
	// ProcsPerVM is how many worker processes share one VM (B1.4x8 has
	// 4 vCPUs; the paper runs 24 workers on 6 VMs).
	ProcsPerVM int
	// VMHourlyPrice is the per-VM rental (Table 2: B1.4x8 at $0.20/h).
	VMHourlyPrice float64
	// BootTime is VM cluster startup (>1 min for 6 VMs, §7). The paper
	// excludes it from every comparison and Train does the same; the
	// startup ablation bench adds it back explicitly.
	BootTime time.Duration
	// Link is the VM-to-VM network path for the all-reduce.
	Link netmodel.Link
	// FlopsPerSecond is one core's dense-kernel throughput (MKL).
	FlopsPerSecond float64
	// DenseParamThroughput is the per-step framework overhead on sparse
	// data, expressed as parameters handled per second: every step the
	// framework materializes, (de)serializes and optimizes the FULL
	// dense parameter space regardless of batch sparsity, at this
	// effective rate. It is the one empirically calibrated constant of
	// the reproduction: the paper measured PyTorch at ≈10 s/step on the
	// 1.64M-parameter ML-10M PMF (≈6 µs/parameter) and attributes it to
	// dense handling of sparse data (§6.2); the default sits in that
	// measured range. See EXPERIMENTS.md.
	DenseParamThroughput float64
}

// DefaultConfig returns the calibrated baseline.
func DefaultConfig() Config {
	return Config{
		ProcsPerVM:           4,
		VMHourlyPrice:        cost.PriceB14x8PerHour,
		BootTime:             60 * time.Second,
		Link:                 netmodel.VMPeerLink(),
		FlopsPerSecond:       2e9,
		DenseParamThroughput: 250e3,
	}
}

// Train runs the job on the serverful cluster (see baseline.Run).
func Train(cos *objstore.Store, job core.Job, cfg Config) (*core.Result, error) {
	return baseline.Run(cos, job, &cluster{cfg: baseline.Defaults(cfg, DefaultConfig())})
}

// cluster charges a step the way the VM cluster spends it. The workers
// are symmetric, so the whole pool is one "cluster" trace track.
type cluster struct {
	baseline.Env
	cfg Config
}

func (c *cluster) Start(e baseline.Env) { c.Env = e }

// Map charges nothing: the step waits for the slowest concurrent fetch.
func (*cluster) Map(*vclock.Clock, int, int, float64) error { return nil }

func (c *cluster) Reduce(clk *vclock.Clock, step int, slowest time.Duration, flops float64) (int64, error) {
	baseline.Phase(c.Trace, "cluster", clk, "fetch", slowest, trace.Int("step", step))
	// Per-worker math on the batch (MKL-speed kernels)...
	computeSecs := flops / c.cfg.FlopsPerSecond
	// ...plus the framework's dense pass over the whole parameter space
	// (gradient materialization, (de)serialization, dense optimizer
	// state) — the empirically dominant cost on sparse models (§6.2).
	computeSecs += float64(c.Params) / c.cfg.DenseParamThroughput
	baseline.Phase(c.Trace, "cluster", clk, "compute", time.Duration(computeSecs*float64(time.Second)),
		trace.Int("step", step))
	// Ring all-reduce of the dense gradient.
	baseline.Phase(c.Trace, "cluster", clk, "allreduce", allreduce.RingTime(c.cfg.Link, c.P, c.DenseBytes),
		trace.Int("step", step), trace.Int("bytes", c.DenseBytes*c.P))
	return int64(c.DenseBytes) * int64(c.P), nil
}

// Bill pays every VM for the whole job.
func (c *cluster) Bill(execTime time.Duration) cost.Report {
	var meter cost.Meter
	for i := 0; i < (c.P+c.cfg.ProcsPerVM-1)/c.cfg.ProcsPerVM; i++ {
		meter.AddVM(fmt.Sprintf("pytorch-vm-%d-b1.4x8", i), c.cfg.VMHourlyPrice, execTime)
	}
	return meter.Report()
}
