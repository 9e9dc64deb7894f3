// Package serverful implements the paper's IaaS baseline (§6.1): a
// PyTorch-style data-parallel trainer on a cluster of reserved VMs,
// synchronizing dense gradients with Gloo's ring all-reduce every step.
//
// The training mathematics are identical to MLLess — same models, same
// mini-batch plan, same averaged-gradient updates — which is the paper's
// sanity check (§6.1): "we fixed a random seed, and trained all models in
// each system using a single worker [and] verified that the convergence
// rate at each step was exactly the same in all systems". What differs is
// the systems behaviour:
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
	"math"
	"time"

	"mlless/internal/allreduce"
	"mlless/internal/core"
	"mlless/internal/cost"
	"mlless/internal/dataset"
	"mlless/internal/fit"
	"mlless/internal/netmodel"
	"mlless/internal/objstore"
	"mlless/internal/sparse"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// Config parameterizes the VM cluster and framework model.
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

func (c Config) withDefaults() Config {
	if c.ProcsPerVM <= 0 {
		c.ProcsPerVM = 4
	}
	if c.VMHourlyPrice <= 0 {
		c.VMHourlyPrice = cost.PriceB14x8PerHour
	}
	if c.FlopsPerSecond <= 0 {
		c.FlopsPerSecond = 2e9
	}
	if c.DenseParamThroughput <= 0 {
		c.DenseParamThroughput = 250e3
	}
	return c
}

// Train runs the job on the serverful cluster and returns a result in
// the same shape MLLess produces, so the experiment harness compares the
// systems uniformly. The job's Sync, Significance and AutoTune fields are
// ignored: VM-based ML systems have neither significance filtering nor
// scale-in ("abilities that are not available in VM-based ML systems such
// as PyTorch", §1).
func Train(cos *objstore.Store, job core.Job, cfg Config) (*core.Result, error) {
	spec := job.Spec
	if spec.Workers <= 0 {
		return nil, core.ErrNoWorkers
	}
	if job.NumBatches <= 0 {
		return nil, core.ErrNoData
	}
	if job.Model == nil || job.Optimizer == nil {
		return nil, fmt.Errorf("serverful: job needs a model and an optimizer")
	}
	if spec.Data != "" && spec.Data != core.DataShard {
		return nil, fmt.Errorf("%w: got %q", core.ErrUnknownData, spec.Data)
	}
	cfg = cfg.withDefaults()
	if spec.MaxSteps <= 0 {
		spec.MaxSteps = 5000
	}
	if spec.LossAlpha <= 0 {
		spec.LossAlpha = 0.25
	}

	p := spec.Workers
	mdl := job.Model.Clone()
	opt := job.Optimizer.Clone()
	plan := dataset.NewPlan(job.NumBatches, p)
	// The manifest read goes on a setup clock, not the step clock: like
	// VM boot, data layout discovery is outside every comparison.
	var setup vclock.Clock
	shards, err := dataset.OpenShardCache(cos, &setup, job.Bucket)
	if err != nil {
		return nil, fmt.Errorf("serverful: %w", err)
	}
	smoother := fit.NewEWMA(spec.LossAlpha)

	denseBytes := sparse.DenseEncodedSize(mdl.NumParams())
	var clk vclock.Clock // cluster-wide step clock (workers are symmetric)
	var history []core.LossPoint
	converged := false
	diverged := false
	prev := time.Duration(0)

	tr := job.Trace
	gradSum := sparse.New() // accumulated across workers; models reuse a scratch gradient
	for step := 1; step <= spec.MaxSteps; step++ {
		stepStart := clk.Now()
		// Every worker fetches its own mini-batch concurrently; the step
		// waits for the slowest fetch.
		var slowest time.Duration
		gradSum.Clear()
		lossSum := 0.0
		var batchLen int
		for w := 0; w < p; w++ {
			var fetch vclock.Clock
			view, err := shards.Fetch(&fetch, plan.BatchFor(w, step))
			if err != nil {
				return nil, fmt.Errorf("serverful: worker %d step %d: %w", w, step, err)
			}
			if fetch.Now() > slowest {
				slowest = fetch.Now()
			}
			lossSum += mdl.LossView(view)
			gradSum.AddVector(mdl.GradientView(view))
			batchLen = view.Len()
		}
		clk.Advance(slowest)
		if tr.Enabled() {
			// The cluster advances in lock-step (workers are symmetric),
			// so the whole pool is one "cluster" track.
			tr.SpanOn("cluster", trace.CatEngine, "fetch", stepStart, clk.Now(),
				trace.Int("step", step))
		}
		computeStart := clk.Now()

		// Per-worker math on the batch (MKL-speed kernels)...
		computeSecs := 1.5 * mdl.GradientWork(batchLen) / cfg.FlopsPerSecond
		// ...plus the framework's dense pass over the whole parameter
		// space (gradient materialization, (de)serialization, dense
		// optimizer state) — the empirically dominant cost on sparse
		// models (§6.2).
		computeSecs += float64(mdl.NumParams()) / cfg.DenseParamThroughput
		clk.Advance(time.Duration(computeSecs * float64(time.Second)))
		if tr.Enabled() {
			tr.SpanOn("cluster", trace.CatEngine, "compute", computeStart, clk.Now(),
				trace.Int("step", step))
		}

		// Ring all-reduce of the dense gradient.
		allreduceStart := clk.Now()
		clk.Advance(allreduce.RingTime(cfg.Link, p, denseBytes))
		if tr.Enabled() {
			tr.SpanOn("cluster", trace.CatEngine, "allreduce", allreduceStart, clk.Now(),
				trace.Int("step", step), trace.Int("bytes", denseBytes*p))
		}

		// Identical averaged update on every replica (we keep one).
		gradSum.Scale(1 / float64(p))
		u := opt.Step(step, gradSum)
		mdl.ApplyUpdate(u)

		raw := lossSum / float64(p)
		smoothed := smoother.Update(raw)
		now := clk.Now()
		history = append(history, core.LossPoint{
			Step: step, Time: now, Loss: smoothed, RawLoss: raw,
			Workers: p, UpdateBytes: int64(denseBytes) * int64(p), Duration: now - prev,
		})
		prev = now

		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			diverged = true
			break
		}
		if spec.TargetLoss > 0 && smoothed <= spec.TargetLoss {
			converged = true
			break
		}
		if spec.MaxWallClock > 0 && now >= spec.MaxWallClock {
			break
		}
	}

	execTime := clk.Now()
	numVMs := (p + cfg.ProcsPerVM - 1) / cfg.ProcsPerVM
	var meter cost.Meter
	for i := 0; i < numVMs; i++ {
		meter.AddVM(fmt.Sprintf("pytorch-vm-%d-b1.4x8", i), cfg.VMHourlyPrice, execTime)
	}

	finalLoss := 0.0
	if len(history) > 0 {
		finalLoss = history[len(history)-1].Loss
	}
	var totalBytes int64
	for _, pnt := range history {
		totalBytes += pnt.UpdateBytes
	}
	return &core.Result{
		Converged:        converged,
		Diverged:         diverged,
		ExecTime:         execTime,
		Steps:            len(history),
		FinalLoss:        finalLoss,
		History:          history,
		Cost:             meter.Report(),
		TotalUpdateBytes: totalBytes,
	}, nil
}
