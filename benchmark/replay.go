package main

import (
	"fmt"
	"time"

	"mlless"
	"mlless/internal/consistency"
	"mlless/internal/dataset"
	"mlless/internal/exchange"
	"mlless/internal/model"
	"mlless/internal/shard"
	"mlless/internal/sparse"
	"mlless/internal/vclock"
)

// The layer replay gives host time per layer from outside the program:
// the harness itself drives one step sequence through each layer's
// public functions — the calls core's worker state machine makes, in
// its order, on the workload's own staged data — and wraps every call
// in a span. Nothing inside the simulator is instrumented.

// Span names are "<layer>.<call>". The direct children of a step span
// reproduce the engine's step, except the probe span: its children are
// extra measurements of the sparse kernels on the step's own updates.
const (
	spanStep   = "step"
	spanProbe  = "probe"
	spanFetch  = "dataset.fetch"
	spanLoss   = "model.loss"
	spanGrad   = "model.gradient"
	spanOpt    = "optimizer.step"
	spanApply  = "model.apply_update"
	spanFilter = "consistency.filter_add"
	spanPub    = "exchange.publish"
	spanRound  = "exchange.round"
	spanPull   = "exchange.pull"
	spanFanout = "msgqueue.fanout"
	spanReport = "msgqueue.publish"
	spanDrain  = "msgqueue.consume"

	spanEncode    = "sparse.encode"
	spanAddDense  = "sparse.add_encoded"
	spanAddSparse = "sparse.add_encoded_sparse"
)

// replayStats carries the counts taken at the same boundaries as the
// spans, so ratios are measured where the work happens.
type replayStats struct {
	workerSteps int
	gradNNZ     int64 // Σ gradient non-zeros
	offered     int64 // Σ update entries handed to Filter.Add
	updateNNZ   int64 // Σ significant-update non-zeros published
	residualNNZ int64 // Σ residual entries after each Filter.Add
	flushed     int64 // Σ Filter.FlushedEntries at the end
	updateBytes int64 // Σ encoded payload bytes
}

type replayWorker struct {
	m    model.ViewModel
	opt  mlless.Optimizer
	f    *consistency.Filter
	clk  vclock.Clock
	pull exchange.PullCtx
}

// replay drives steps of st's single-job workload and records spans
// into rec under repetition number rep.
func replay(st *staged, rec *recorder, rep, steps int) (*replayStats, error) {
	job := st.job()
	spec := job.Spec
	p := spec.Workers
	cl := st.freshCluster()

	proto, ok := job.Model.(model.ViewModel)
	if !ok {
		return nil, fmt.Errorf("replay: model %q has no view interface", job.Model.Name())
	}
	kind := spec.Exchange
	if kind == "" {
		kind = exchange.KindParamServer
	}
	v := 0.0
	if spec.Sync == mlless.ISP {
		v = spec.Significance
	}
	x, err := exchange.New(kind, exchange.Env{
		KV: cl.Redis, Obj: cl.COS, Reg: cl.Metrics,
		NS: "replay", Bucket: "xchg-replay",
		Dim: proto.NumParams(), Workers: p, Fanout: spec.TreeFanout,
		Charge: func(clk *vclock.Clock, _ int, flops float64) {
			clk.Advance(time.Duration(flops / cl.Compute.FlopsPerSecond * float64(time.Second)))
		},
	})
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	defer x.Teardown()

	var sup vclock.Clock
	shards, err := dataset.OpenShardCache(cl.COS, &sup, job.Bucket)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	plan := dataset.NewPlan(job.NumBatches, p)

	const lossQueue, annExchange = "replay/losses", "replay/ann"
	annQueue := make([]string, p)
	cl.Broker.DeclareQueue(lossQueue)
	cl.Broker.DeclareFanout(annExchange)
	workers := make([]*replayWorker, p)
	ids := make([]int, p)
	for i := range workers {
		ids[i] = i
		annQueue[i] = fmt.Sprintf("replay/ann/%d", i)
		cl.Broker.DeclareQueue(annQueue[i])
		if err := cl.Broker.Bind(annExchange, annQueue[i]); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		workers[i] = &replayWorker{
			m:   proto.Clone().(model.ViewModel),
			opt: job.Optimizer.Clone(),
			f:   consistency.NewFilterVariant(v, spec.FilterVariant),
		}
	}
	var collectiveIDs []int
	if x.Collective() {
		collectiveIDs = ids
	}

	stats := &replayStats{}
	var wire, enc []byte
	// The engine's announce and loss-report messages are 12 and 20
	// bytes; their content does not matter to the broker.
	announce, report := make([]byte, 12), make([]byte, 20)
	probeDense := sparse.NewDense(proto.NumParams())
	probeAcc := sparse.New()
	maxClock := func() time.Duration {
		var m time.Duration
		for _, w := range workers {
			if now := w.clk.Now(); now > m {
				m = now
			}
		}
		return m
	}

	for step := 1; step <= steps; step++ {
		stepSpan := rec.begin(spanStep, -1, rep, step, -1)
		under := func(parent int, name string, worker int, fn func()) {
			id := rec.begin(name, parent, rep, step, worker)
			fn()
			rec.end(id)
		}
		call := func(name string, worker int, fn func()) { under(stepSpan, name, worker, fn) }

		// Compute half, per worker: fetch → loss/gradient → optimizer →
		// scale/apply → filter → publish → announce → loss report.
		for i, w := range workers {
			var view shard.BatchView
			call(spanFetch, i, func() { view, err = shards.Fetch(&w.clk, plan.BatchFor(i, step)) })
			if err != nil {
				return nil, fmt.Errorf("replay: step %d worker %d: %w", step, i, err)
			}
			call(spanLoss, i, func() { w.m.LossView(view) })
			var grad, u, sig *sparse.Vector
			call(spanGrad, i, func() { grad = w.m.GradientView(view) })
			stats.gradNNZ += int64(grad.Len())
			call(spanOpt, i, func() { u = w.opt.Step(step, grad) })
			call(spanApply, i, func() {
				u.Scale(1 / float64(p))
				w.m.ApplyUpdate(u)
			})
			stats.offered += int64(u.Len())
			call(spanFilter, i, func() { sig = w.f.Add(step, u, w.m.Params()) })
			stats.updateNNZ += int64(sig.Len())
			stats.residualNNZ += int64(w.f.Residual().Len())
			w.pull.OwnSig = sig
			call(spanPub, i, func() { wire, err = x.Publish(&w.clk, i, step, sig, collectiveIDs, wire[:0]) })
			if err != nil {
				return nil, fmt.Errorf("replay: step %d worker %d publish: %w", step, i, err)
			}
			stats.updateBytes += int64(len(wire))
			call(spanFanout, i, func() { err = cl.Broker.PublishFanout(&w.clk, annExchange, announce) })
			if err == nil {
				call(spanReport, i, func() { err = cl.Broker.Publish(&w.clk, lossQueue, report) })
			}
			if err != nil {
				return nil, fmt.Errorf("replay: step %d worker %d announce: %w", step, i, err)
			}
		}

		// Probes: the sparse kernels alone, on this step's updates. The
		// filter owns each sig until its next Add, so they are still
		// valid here.
		probe := rec.begin(spanProbe, stepSpan, rep, step, -1)
		probeAcc.Clear()
		for i, w := range workers {
			timed := func(name string, fn func()) { under(probe, name, i, fn) }
			timed(spanEncode, func() { enc = w.pull.OwnSig.EncodeTo(enc[:0]) })
			timed(spanAddDense, func() { _, err = sparse.AddEncoded(probeDense, enc) })
			if err == nil {
				timed(spanAddSparse, func() { _, err = sparse.AddEncodedSparse(probeAcc, enc) })
			}
			if err != nil {
				return nil, fmt.Errorf("replay: step %d probe: %w", step, err)
			}
		}
		rec.end(probe)

		// Reduction rounds (collectives only), then the pull half.
		for r := 0; r < x.Rounds(p); r++ {
			readyAt := maxClock()
			for i, w := range workers {
				call(spanRound, i, func() { err = x.RunRound(&w.clk, i, step, r, ids, readyAt) })
				if err != nil {
					return nil, fmt.Errorf("replay: step %d worker %d round %d: %w", step, i, r, err)
				}
			}
		}
		readyAt := maxClock()
		for i, w := range workers {
			call(spanDrain, i, func() { cl.Broker.ConsumeAll(&w.clk, annQueue[i]) })
			pc := &w.pull
			pc.Worker, pc.Clock = i, &w.clk
			pc.FromStep, pc.Step = step-1, step
			pc.ActiveIDs, pc.Params, pc.ReadyAt = ids, w.m.Params(), readyAt
			call(spanPull, i, func() { _, err = x.Pull(pc) })
			if err != nil {
				return nil, fmt.Errorf("replay: step %d worker %d pull: %w", step, i, err)
			}
		}
		call(spanDrain, -1, func() { cl.Broker.ConsumeAll(&sup, lossQueue) })

		// Barrier and server-side expiry, as the lock-step schedule does.
		barrier := maxClock()
		for _, w := range workers {
			w.clk.AdvanceTo(barrier)
		}
		var janitor vclock.Clock
		x.Expire(&janitor, step, ids)
		rec.end(stepSpan)
		stats.workerSteps += p
	}
	for _, w := range workers {
		stats.flushed += w.f.FlushedEntries()
	}
	return stats, nil
}
