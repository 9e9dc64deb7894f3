// Package baseline is the sequential data-parallel trainer behind the
// paper's two baselines (§6.1): each step, P workers fetch mini-batches,
// their gradients are averaged, and one optimizer step updates the
// replica every worker holds. The serverful and PyWren trainers are two
// Charges over this loop, so the §6.1 sanity check ("the convergence
// rate at each step was exactly the same in all systems") holds by
// construction. With a charge that costs nothing, the loop is the loss
// oracle MLLess BSP is checked against.
package baseline

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"mlless/internal/core"
	"mlless/internal/cost"
	"mlless/internal/dataset"
	"mlless/internal/fit"
	"mlless/internal/objstore"
	"mlless/internal/sparse"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// Env is what the loop tells its charge about the run: P workers, the
// model's parameter count and dense wire size, and the job's tracer.
type Env struct {
	P, Params, DenseBytes int
	Trace                 *trace.Tracer
}

// Charge is how one system spends and bills the loop's steps.
type Charge interface {
	// Start is called once, after validation.
	Start(e Env)
	// Map adds worker w's own work at step to its clock, which already
	// holds the worker's mini-batch fetch; flops is its gradient's work.
	// Only the clock's final reading is used.
	Map(wclk *vclock.Clock, step, w int, flops float64) error
	// Reduce advances the run clock past step, given its slowest worker
	// clock and one worker's gradient flops, and returns the update bytes
	// the step moved.
	Reduce(clk *vclock.Clock, step int, slowest time.Duration, flops float64) (int64, error)
	// Bill itemizes the run, which ended at execTime.
	Bill(execTime time.Duration) cost.Report
}

// Run trains job over the shards staged in cos, charging each step with
// c, and stops where core.Run would (core.StopCheck). Sync, Significance,
// AutoTune and the exchange fields are ignored: neither baseline has
// significance filtering or scale-in (§1).
func Run(cos *objstore.Store, job core.Job, c Charge) (*core.Result, error) {
	spec := job.Spec
	switch {
	case spec.Workers <= 0:
		return nil, core.ErrNoWorkers
	case job.NumBatches <= 0:
		return nil, core.ErrNoData
	case job.Model == nil || job.Optimizer == nil:
		return nil, errors.New("baseline: job needs a model and an optimizer")
	case spec.Data != "" && spec.Data != core.DataShard:
		return nil, fmt.Errorf("%w: got %q", core.ErrUnknownData, spec.Data)
	}
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
	// The manifest read goes on a setup clock, not the run clock: like VM
	// boot, data layout discovery is outside every comparison.
	var setup vclock.Clock
	shards, err := dataset.OpenShardCache(cos, &setup, job.Bucket)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	params := mdl.NumParams()
	c.Start(Env{P: p, Params: params, DenseBytes: sparse.DenseEncodedSize(params), Trace: job.Trace})
	smoother := fit.NewEWMA(spec.LossAlpha)
	stop := core.NewStopCheck(spec)

	res := &core.Result{}
	var clk vclock.Clock    // the run clock: steps are sequential rounds
	gradSum := sparse.New() // models reuse a scratch gradient buffer
	for step := 1; step <= spec.MaxSteps; step++ {
		gradSum.Clear()
		lossSum, flops, slowest := 0.0, 0.0, time.Duration(0)
		for w := 0; w < p; w++ {
			var wclk vclock.Clock // workers run concurrently within a step
			view, err := shards.Fetch(&wclk, plan.BatchFor(w, step))
			if err == nil {
				lossSum += mdl.LossView(view)
				gradSum.AddVector(mdl.GradientView(view))
				flops = 1.5 * mdl.GradientWork(view.Len())
				err = c.Map(&wclk, step, w, flops)
			}
			if err != nil {
				return nil, fmt.Errorf("baseline: worker %d step %d: %w", w, step, err)
			}
			slowest = max(slowest, wclk.Now())
		}
		stepStart := clk.Now()
		updateBytes, err := c.Reduce(&clk, step, slowest, flops)
		if err != nil {
			return nil, err
		}
		gradSum.Scale(1 / float64(p))
		mdl.ApplyUpdate(opt.Step(step, gradSum))

		raw := lossSum / float64(p)
		smoothed := smoother.Update(raw)
		now := clk.Now()
		res.History = append(res.History, core.LossPoint{
			Step: step, Time: now, Loss: smoothed, RawLoss: raw,
			Workers: p, UpdateBytes: updateBytes, Duration: now - stepStart,
		})
		res.Steps, res.FinalLoss = step, smoothed
		res.TotalUpdateBytes += updateBytes
		var halt bool
		if halt, res.Converged, res.Diverged = stop.Decide(raw, smoothed, now); halt {
			break
		}
	}
	res.ExecTime = clk.Now()
	res.Cost = c.Bill(res.ExecTime)
	return res, nil
}

// Phase advances clk by d and records the interval as the span name on
// track.
func Phase(tr *trace.Tracer, track string, clk *vclock.Clock, name string, d time.Duration, args ...trace.Arg) {
	start := clk.Now()
	clk.Advance(d)
	tr.SpanOn(track, trace.CatEngine, name, start, clk.Now(), args...)
}

// Defaults returns the config struct cfg with every unset field (zero or
// negative) taken from def, so DefaultConfig holds each constant once.
func Defaults[T any](cfg, def T) T {
	v, d := reflect.ValueOf(&cfg).Elem(), reflect.ValueOf(def)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.IsZero() || f.CanInt() && f.Int() < 0 || f.CanFloat() && f.Float() < 0 {
			f.Set(d.Field(i))
		}
	}
	return cfg
}
