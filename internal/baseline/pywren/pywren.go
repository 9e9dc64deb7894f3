// Package pywren implements the paper's second baseline (§6.1): a
// non-specialized, pure serverless map-reduce trainer in the style of
// PyWren-IBM. Each training step is a map-reduce round:
//
//	map:    P functions each load the current model from object storage,
//	        fetch a mini-batch, compute a local update in pure Python
//	        speed, and write the update back to object storage;
//	reduce: one function reads the P updates, aggregates them, applies
//	        the optimizer, and writes the new model to object storage.
//
// All communication goes through the object store "to keep its pure
// serverless, general-purpose architecture" (§6.1) — no Redis, no
// message broker — and nothing is specialized for sparsity or iteration,
// which is exactly why "PyWren-IBM is very inefficient in all jobs"
// (§6.2): slow storage on the critical path each step, dense model
// objects shuttled around, fresh function activations per map phase, and
// non-compiled update computation.
//
// The ML math is still real and identical to the other systems (the
// §6.1 sanity check).
package pywren

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"mlless/internal/core"
	"mlless/internal/cost"
	"mlless/internal/dataset"
	"mlless/internal/faas"
	"mlless/internal/fit"
	"mlless/internal/objstore"
	"mlless/internal/sparse"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// Config parameterizes the map-reduce trainer.
type Config struct {
	// PythonSlowdown multiplies compute time relative to the compiled
	// MLLess kernels: the paper re-implemented PyWren-IBM's runtime in
	// Cython precisely because the pure Python path "is painful[ly] slow
	// for ML training" (§5).
	PythonSlowdown float64
	// BaseFlopsPerSecond is the compiled single-vCPU throughput the
	// slowdown applies to (MLLess's compute model).
	BaseFlopsPerSecond float64
	// MemoryMiB sizes the map/reduce functions (default 2048).
	MemoryMiB int
}

// DefaultConfig returns the calibrated configuration.
func DefaultConfig() Config {
	return Config{
		PythonSlowdown:     25,
		BaseFlopsPerSecond: core.DefaultComputeModel().FlopsPerSecond,
		MemoryMiB:          2048,
	}
}

var jobCounter int64

// nextJobID allocates a unique state-object suffix per Train call so
// concurrent jobs on one object store never collide.
func nextJobID() int64 { return atomic.AddInt64(&jobCounter, 1) }

func (c Config) withDefaults() Config {
	if c.PythonSlowdown <= 0 {
		c.PythonSlowdown = 25
	}
	if c.BaseFlopsPerSecond <= 0 {
		c.BaseFlopsPerSecond = core.DefaultComputeModel().FlopsPerSecond
	}
	if c.MemoryMiB <= 0 {
		c.MemoryMiB = 2048
	}
	return c
}

// Train runs the job as iterated map-reduce over the object store and
// the FaaS platform. Sync/Significance/AutoTune in the spec are ignored
// (PyWren-IBM has no such specializations).
func Train(platform *faas.Platform, cos *objstore.Store, job core.Job, cfg Config) (*core.Result, error) {
	spec := job.Spec
	if spec.Workers <= 0 {
		return nil, core.ErrNoWorkers
	}
	if job.NumBatches <= 0 {
		return nil, core.ErrNoData
	}
	if job.Model == nil || job.Optimizer == nil {
		return nil, fmt.Errorf("pywren: job needs a model and an optimizer")
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
	// The manifest read goes on a setup clock, not the round clock: the
	// driver resolves the layout once and passes it in the payload.
	var setup vclock.Clock
	shards, err := dataset.OpenShardCache(cos, &setup, job.Bucket)
	if err != nil {
		return nil, fmt.Errorf("pywren: %w", err)
	}
	smoother := fit.NewEWMA(spec.LossAlpha)
	faasCfg := platform.Config()

	// The model travels as a dense object (non-specialized framework).
	denseBytes := sparse.DenseEncodedSize(mdl.NumParams())
	const bucketState = "pywren-state"
	stateKey := fmt.Sprintf("model-%d", nextJobID())
	var seed vclock.Clock
	cos.Put(&seed, bucketState, stateKey, make([]byte, denseBytes))

	var clk vclock.Clock // round clock
	var meter cost.Meter
	var history []core.LossPoint
	var mapBilledTotal, reduceBilledTotal time.Duration
	gradSum := sparse.New() // models reuse a scratch gradient buffer
	converged := false
	diverged := false
	prev := time.Duration(0)
	warm := false

	computeTime := func(flops float64) time.Duration {
		secs := flops * cfg.PythonSlowdown / cfg.BaseFlopsPerSecond
		return time.Duration(secs * float64(time.Second))
	}

	tr := job.Trace
	for step := 1; step <= spec.MaxSteps; step++ {
		stepStart := clk.Now()
		// ---- Map phase: P fresh function activations.
		start := faasCfg.ColdStart
		if warm {
			start = faasCfg.WarmStart
		}
		warm = true

		gradSum.Clear()
		lossSum := 0.0
		var slowestMap time.Duration
		var mapBilled time.Duration
		for w := 0; w < p; w++ {
			var mclk vclock.Clock
			mclk.Advance(start)
			// Load the current model from object storage.
			if _, err := cos.Get(&mclk, bucketState, stateKey); err != nil {
				return nil, fmt.Errorf("pywren: map %d step %d: %w", w, step, err)
			}
			view, err := shards.Fetch(&mclk, plan.BatchFor(w, step))
			if err != nil {
				return nil, fmt.Errorf("pywren: map %d step %d: %w", w, step, err)
			}
			lossSum += mdl.LossView(view)
			gradSum.AddVector(mdl.GradientView(view))
			mclk.Advance(computeTime(1.5 * mdl.GradientWork(view.Len())))
			// Write the local update back — densely.
			cos.Put(&mclk, bucketState, fmt.Sprintf("%s-upd-%d", stateKey, w), make([]byte, denseBytes))
			if mclk.Now() > slowestMap {
				slowestMap = mclk.Now()
			}
			mapBilled += mclk.Now()
		}
		clk.Advance(slowestMap)
		mapBilledTotal += mapBilled
		if tr.Enabled() {
			// One "mapreduce" track: rounds are sequential, so the span
			// pair map→reduce per step is the whole story.
			tr.SpanOn("mapreduce", trace.CatEngine, "map", stepStart, clk.Now(),
				trace.Int("step", step), trace.Int("maps", p))
		}
		reduceStart := clk.Now()

		// ---- Reduce phase: one function aggregates and updates.
		var rclk vclock.Clock
		rclk.Advance(faasCfg.WarmStart)
		for w := 0; w < p; w++ {
			if _, err := cos.Get(&rclk, bucketState, fmt.Sprintf("%s-upd-%d", stateKey, w)); err != nil {
				return nil, fmt.Errorf("pywren: reduce step %d: %w", step, err)
			}
		}
		gradSum.Scale(1 / float64(p))
		u := opt.Step(step, gradSum)
		mdl.ApplyUpdate(u)
		rclk.Advance(computeTime(float64(p) * float64(mdl.NumParams()))) // dense aggregation
		cos.Put(&rclk, bucketState, stateKey, make([]byte, denseBytes))  // new model
		clk.Advance(rclk.Now())
		reduceBilledTotal += rclk.Now()
		if tr.Enabled() {
			tr.SpanOn("mapreduce", trace.CatEngine, "reduce", reduceStart, clk.Now(),
				trace.Int("step", step))
		}

		raw := lossSum / float64(p)
		smoothed := smoother.Update(raw)
		now := clk.Now()
		history = append(history, core.LossPoint{
			Step: step, Time: now, Loss: smoothed, RawLoss: raw,
			Workers: p, UpdateBytes: int64(denseBytes) * int64(p+1), Duration: now - prev,
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

	meter.AddFunction(fmt.Sprintf("map-functions-x%d", p), mapBilledTotal, float64(cfg.MemoryMiB)/1024)
	meter.AddFunction("reduce-function", reduceBilledTotal, float64(cfg.MemoryMiB)/1024)

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
		ExecTime:         clk.Now(),
		Steps:            len(history),
		FinalLoss:        finalLoss,
		History:          history,
		Cost:             meter.Report(),
		TotalUpdateBytes: totalBytes,
	}, nil
}
