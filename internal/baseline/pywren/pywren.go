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
// The ML math is still real and MLLess's: Train is a charge over the
// shared loop in package baseline (the §6.1 sanity check).
package pywren

import (
	"fmt"
	"sync/atomic"
	"time"

	"mlless/internal/baseline"
	"mlless/internal/core"
	"mlless/internal/cost"
	"mlless/internal/faas"
	"mlless/internal/objstore"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// Config parameterizes the map-reduce trainer. Unset fields take
// DefaultConfig's values.
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

// bucketState holds the model and update objects of every run, each
// under a key prefix of its own so concurrent runs never collide.
const bucketState = "pywren-state"

var jobCounter atomic.Int64

// Train runs the job as iterated map-reduce over the object store and
// the FaaS platform (see baseline.Run). It deletes the run's objects
// before it returns, on a clock of their own, so neither ExecTime nor
// the bill moves.
func Train(platform *faas.Platform, cos *objstore.Store, job core.Job, cfg Config) (*core.Result, error) {
	c := &mapReduce{cfg: baseline.Defaults(cfg, DefaultConfig()), faas: platform.Config(), cos: cos,
		prefix: fmt.Sprintf("%d/", jobCounter.Add(1))}
	defer func() {
		var clk vclock.Clock
		for _, key := range cos.List(&clk, bucketState, c.prefix) {
			cos.Delete(&clk, bucketState, key)
		}
	}()
	return baseline.Run(cos, job, c)
}

// mapReduce charges a step as one map-reduce round: a map span and a
// reduce span on one "mapreduce" trace track.
type mapReduce struct {
	baseline.Env
	cfg                     Config
	faas                    faas.Config
	cos                     *objstore.Store
	prefix                  string
	mapBilled, reduceBilled time.Duration
}

func (c *mapReduce) compute(flops float64) time.Duration {
	secs := flops * c.cfg.PythonSlowdown / c.cfg.BaseFlopsPerSecond
	return time.Duration(secs * float64(time.Second))
}

func (c *mapReduce) Start(e baseline.Env) {
	c.Env = e
	var seed vclock.Clock
	c.cos.Put(&seed, bucketState, c.prefix+"model", make([]byte, c.DenseBytes))
}

// Map is one function activation (cold in the first round): it loads the
// model, computes at Python speed and writes its dense update back.
func (c *mapReduce) Map(wclk *vclock.Clock, step, w int, flops float64) error {
	start := c.faas.WarmStart
	if step == 1 {
		start = c.faas.ColdStart
	}
	wclk.Advance(start)
	if _, err := c.cos.Get(wclk, bucketState, c.prefix+"model"); err != nil {
		return err
	}
	wclk.Advance(c.compute(flops))
	c.cos.Put(wclk, bucketState, fmt.Sprintf("%supd-%d", c.prefix, w), make([]byte, c.DenseBytes))
	c.mapBilled += wclk.Now()
	return nil
}

// Reduce waits for the slowest map, then one function reads the P
// updates, aggregates them densely and writes the new model.
func (c *mapReduce) Reduce(clk *vclock.Clock, step int, slowest time.Duration, _ float64) (int64, error) {
	baseline.Phase(c.Trace, "mapreduce", clk, "map", slowest, trace.Int("step", step), trace.Int("maps", c.P))
	var rclk vclock.Clock
	rclk.Advance(c.faas.WarmStart)
	for w := 0; w < c.P; w++ {
		if _, err := c.cos.Get(&rclk, bucketState, fmt.Sprintf("%supd-%d", c.prefix, w)); err != nil {
			return 0, fmt.Errorf("pywren: reduce step %d: %w", step, err)
		}
	}
	rclk.Advance(c.compute(float64(c.P) * float64(c.Params)))
	c.cos.Put(&rclk, bucketState, c.prefix+"model", make([]byte, c.DenseBytes))
	c.reduceBilled += rclk.Now()
	baseline.Phase(c.Trace, "mapreduce", clk, "reduce", rclk.Now(), trace.Int("step", step))
	return int64(c.DenseBytes) * int64(c.P+1), nil
}

// Bill pays each function for the time it ran.
func (c *mapReduce) Bill(time.Duration) cost.Report {
	var meter cost.Meter
	gib := float64(c.cfg.MemoryMiB) / 1024
	meter.AddFunction(fmt.Sprintf("map-functions-x%d", c.P), c.mapBilled, gib)
	meter.AddFunction("reduce-function", c.reduceBilled, gib)
	return meter.Report()
}
