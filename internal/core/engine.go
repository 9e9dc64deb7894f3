package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/cost"
	"mlless/internal/dataset"
	"mlless/internal/exchange"
	"mlless/internal/faas"
	"mlless/internal/faults"
	"mlless/internal/fit"
	"mlless/internal/sched"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// The engine is split into layers (see DESIGN.md §9): this file owns the
// run lifecycle (setup, teardown, billing); worker.go the per-step state
// machine each worker executes; supervisor.go the loss aggregation, stop
// criteria and evictions; recovery.go the death/relaunch paths;
// protocol.go the key namespace and wire messages; and schedule.go /
// async.go the lock-step and async loops, which share supervisor.go's
// reconcile as their one step tail.

type engine struct {
	cl  *Cluster
	job Job
	id  string

	workers []*Worker
	sup     *faas.Instance
	supGen  int
	plan    dataset.Plan
	shards  *dataset.ShardCache

	smoother *fit.EWMA
	tuner    *sched.Tuner
	meter    cost.Meter
	faults   *faults.Injector
	tr       *trace.Tracer
	drv      driver
	xchg     exchange.Exchange
	xchgIDs  []int // active-id scratch for exchange calls

	history     []LossPoint
	converged   bool // the stop verdict, set by reconcile
	diverged    bool
	removals    []Removal
	evictExpire []string // consumed eviction-replica keys awaiting TTL expiry

	// recMu guards the relaunch and recovery counters, which concurrent
	// phase goroutines update.
	recMu      sync.Mutex
	relaunches int
	recovery   Recovery

	totalUpdateBytes int64
	prevBarrier      time.Duration
	lastStepDur      time.Duration

	// The last loss-queue drain, handed back to the broker by the next;
	// loss reports drained for steps not yet aggregated, and aggregate's
	// per-worker scratch.
	lossMsgs [][]byte
	reports  []lossReport
	byWorker []lossReport
	reported []bool

	// Control-plane shrink directives (Spec.Shrink sorted by At) not yet
	// handed to the tuner; shrinkIdx is the next due entry.
	shrink    []ShrinkDirective
	shrinkIdx int
}

// Run executes a training job on the cluster and returns its result.
func Run(cl *Cluster, job Job) (*Result, error) {
	return run(cl, job, "")
}

// RunNumbered executes a training job under a job number previously
// reserved with Cluster.ReserveJobIDs, bypassing the cluster's own
// counter. The fleet scheduler uses it so forked executions keep the
// exact namespaces a host-serial admission order would allocate.
func RunNumbered(cl *Cluster, job Job, num int) (*Result, error) {
	return run(cl, job, jobNamespace(job.Spec.Tenant, num))
}

func run(cl *Cluster, job Job, id string) (*Result, error) {
	job.Spec = job.Spec.withDefaults()
	if err := job.validate(job.Spec.MemoryMiB); err != nil {
		return nil, err
	}
	if id == "" {
		id = cl.nextJobID(job.Spec.Tenant)
	}
	e := &engine{
		cl:       cl,
		job:      job,
		id:       id,
		smoother: fit.NewEWMA(LossAlpha),
		tr:       job.Trace,
		drv:      job.drv,
	}
	if e.drv == nil {
		e.drv = &parDriver{}
	}
	defer e.drv.Close()
	if e.tr.Enabled() {
		// Install the tracer on every substrate for the duration of the
		// run, mirroring the fault-injector lifecycle below. Operations
		// land on the track of whichever registered clock they are charged
		// to.
		cl.Platform.SetTracer(e.tr)
		cl.Redis.SetTracer(e.tr)
		cl.COS.SetTracer(e.tr)
		cl.Broker.SetTracer(e.tr)
		defer func() {
			cl.Platform.SetTracer(nil)
			cl.Redis.SetTracer(nil)
			cl.COS.SetTracer(nil)
			cl.Broker.SetTracer(nil)
		}()
	}
	if job.Spec.Faults.Enabled() {
		// Install the seeded injector on every substrate for the
		// duration of the run; decisions are pure functions of the spec
		// seed and each operation's identity, so the run is reproducible.
		e.faults = faults.New(job.Spec.Faults)
		cl.Platform.SetFaults(e.faults)
		cl.Redis.SetFaults(e.faults)
		cl.Broker.SetFaults(e.faults)
		defer func() {
			cl.Platform.SetFaults(nil)
			cl.Redis.SetFaults(nil)
			cl.Broker.SetFaults(nil)
		}()
	}
	if err := e.setup(); err != nil {
		return nil, err
	}
	if job.Spec.Sync == consistency.Async {
		return runAsync(e)
	}
	return runLockStep(e)
}

// traceBoot registers a freshly invoked instance's clock under track and
// records its start latency as a cold-start or warm-start span. Call it
// immediately after a successful invocation, before charging anything
// else to the clock.
func (e *engine) traceBoot(inst *faas.Instance, track string) {
	if !e.tr.Enabled() {
		return
	}
	e.tr.RegisterClock(&inst.Clock, track)
	name := "warm-start"
	if inst.Cold {
		name = "cold-start"
	}
	e.tr.SpanOn(track, trace.CatFaaS, name, inst.StartedAt(), inst.Clock.Now(),
		trace.Str("fn", inst.Name))
}

func (e *engine) setup() error {
	spec := e.job.Spec

	xchg, err := exchange.New(spec.Exchange, exchange.Env{
		KV:      e.cl.Redis,
		Obj:     e.cl.COS,
		Reg:     e.cl.Metrics,
		NS:      e.id,
		Bucket:  "xchg-" + e.id,
		Workers: spec.Workers,
		Fanout:  spec.TreeFanout,
		Charge: func(_ *vclock.Clock, worker int, flops float64) {
			e.chargeCompute(e.workers[worker], flops)
		},
	})
	if err != nil {
		return err
	}
	e.xchg = xchg

	// Every instance boots at the job's launch instant: 0 standalone,
	// the admission time under the fleet control plane. The first
	// step's duration is measured from here.
	e.prevBarrier = spec.StartAt

	sup, err := e.invokeAt(e.supName(), spec.MemoryMiB, spec.StartAt, false)
	if err != nil {
		return fmt.Errorf("core: launch supervisor: %w", err)
	}
	e.sup = sup
	e.traceBoot(sup, supTrack)

	e.cl.Broker.DeclareQueue(e.lossQueue())
	e.cl.Broker.DeclareFanout(e.annExchange())

	v := spec.Significance
	if spec.Sync != consistency.ISP && spec.Sync != consistency.Async {
		v = 0
	}
	e.workers = make([]*Worker, spec.Workers)
	for i := range e.workers {
		inst, err := e.invokeAt(e.workerName(i, 0), spec.MemoryMiB, spec.StartAt, false)
		if err != nil {
			return fmt.Errorf("core: launch worker %d: %w", i, err)
		}
		e.traceBoot(inst, workerTrack(i))
		e.cl.Broker.DeclareQueue(e.annQueue(i))
		if err := e.cl.Broker.Bind(e.annExchange(), e.annQueue(i)); err != nil {
			return fmt.Errorf("core: bind worker %d: %w", i, err)
		}
		e.workers[i] = &Worker{
			id:     i,
			inst:   inst,
			model:  e.job.Model.Clone(),
			opt:    e.job.Optimizer.Clone(),
			filter: consistency.NewFilterVariant(v, spec.FilterVariant),
			alive:  true,
		}
	}

	// The manifest read is charged to the supervisor: it resolves the
	// shard geometry once and the workers inherit it, mirroring the real
	// deployment where the driver passes the layout in the invocation
	// payload.
	e.plan = dataset.NewPlan(e.job.NumBatches, spec.Workers)
	e.shards, err = dataset.OpenShardCache(e.cl.COS, &e.sup.Clock, e.job.Bucket)
	if err != nil {
		return fmt.Errorf("core: open staged dataset: %w", err)
	}
	if n := e.shards.NumBatches(); n != e.job.NumBatches {
		return fmt.Errorf("core: shard manifest stages %d batches, job declares %d", n, e.job.NumBatches)
	}

	// The tuner serves two masters: the scale-in auto-tuner (§4.2) and
	// control-plane shrink requests (Spec.Shrink), both gated on the
	// same knee detection and MinWorkers floor.
	if spec.AutoTune || len(spec.Shrink) > 0 {
		cfg := spec.Sched
		// Unless the caller says otherwise, never scale below a quarter
		// of the original pool: weak scaling shrinks the global batch
		// with p (§3.2), and a near-empty pool can destabilize deep
		// convergence.
		if cfg.MinWorkers <= 0 {
			cfg.MinWorkers = spec.Workers / 4
		}
		e.tuner = sched.New(cfg, spec.StartAt)
		if e.tr.Enabled() {
			e.tuner.SetTracer(e.tr, supTrack)
		}
	}
	if len(spec.Shrink) > 0 {
		e.shrink = append(e.shrink, spec.Shrink...)
		sort.SliceStable(e.shrink, func(i, j int) bool { return e.shrink[i].At < e.shrink[j].At })
	}
	return nil
}

func (e *engine) active() []*Worker {
	out := make([]*Worker, 0, len(e.workers))
	for _, w := range e.workers {
		if w.alive {
			out = append(out, w)
		}
	}
	return out
}

// chargeCompute advances a worker's clock by the virtual duration of
// flops floating-point operations at its memory-proportional CPU share.
func (e *engine) chargeCompute(w *Worker, flops float64) {
	secs := flops / (e.cl.Compute.FlopsPerSecond * w.inst.CPUShare())
	w.inst.Clock.Advance(time.Duration(secs * float64(time.Second)))
}

// expireStep emulates server-side TTL expiry for a completed step's
// exchange data (update keys or collective objects); expiry costs no
// client time.
func (e *engine) expireStep(step int, active []*Worker) {
	var janitor vclock.Clock
	e.xchgIDs = activeIDs(e.xchgIDs, active)
	e.xchg.Expire(&janitor, step, e.xchgIDs)
}

// activeIDs rewrites dst with the ids of ws, in pool order.
func activeIDs(dst []int, ws []*Worker) []int {
	dst = dst[:0]
	for _, w := range ws {
		dst = append(dst, w.id)
	}
	return dst
}

// endInstance terminates (or, if its container already died, reclaims)
// an instance, billing it into the job meter. All engine billing flows
// through TerminateInto/Reclaim, so the runs are marked claimed and a
// caller combining Run with Platform.BillTo cannot double-count them.
func (e *engine) endInstance(inst *faas.Instance) error {
	if dead(inst) {
		return e.cl.Platform.Reclaim(inst, &e.meter)
	}
	return e.cl.Platform.TerminateInto(inst, &e.meter)
}

func (e *engine) teardown(lastSync int) (*Result, error) {
	// ExecTime is the job's own duration: barriers are absolute virtual
	// times, so a fleet job admitted at StartAt > 0 measures from there.
	execTime := e.prevBarrier - e.job.Spec.StartAt

	for _, w := range e.workers {
		if !w.alive {
			continue
		}
		if err := e.endInstance(w.inst); err != nil {
			return nil, err
		}
	}
	if err := e.endInstance(e.sup); err != nil {
		return nil, err
	}

	// Expire every key the job may still hold: update keys published
	// since the last sync point (the loop can stop mid-window under SSP)
	// and eviction replicas not yet expired. Checkpoints are deleted
	// when consumed, so a completed run leaves the store empty.
	lastStep := 0
	if len(e.history) > 0 {
		lastStep = e.history[len(e.history)-1].Step
	}
	var janitor vclock.Clock
	e.xchgIDs = activeIDs(e.xchgIDs, e.workers)
	for s := lastSync + 1; s <= lastStep; s++ {
		e.xchg.Expire(&janitor, s, e.xchgIDs)
	}
	for _, k := range e.evictExpire {
		e.cl.Redis.Delete(&janitor, k)
	}
	e.xchg.Teardown()
	e.xchg.BillInto(&e.meter)

	// The always-on VMs of the MLLess deployment (§6.1): messaging
	// (C1.4x4) and Redis (M1.2x16), prorated per second over the job.
	e.meter.AddVM("messaging-vm-c1.4x4", cost.PriceC14x4PerHour, execTime)
	e.meter.AddVM("redis-vm-m1.2x16", cost.PriceM12x16PerHour, execTime)

	// Surface the fault-recovery overhead on the bill. The line is a
	// memo: its function-seconds are already billed inside the worker
	// lines, so it is excluded from the total.
	if over := e.recovery.Overhead(); over > 0 {
		e.meter.AddMemo("recovery-overhead", over,
			cost.FunctionCost(over, float64(e.job.Spec.MemoryMiB)/1024))
	}

	finalLoss := 0.0
	if len(e.history) > 0 {
		finalLoss = e.history[len(e.history)-1].Loss
	}
	var stepPhases []StepPhase
	if e.tr.Enabled() {
		for _, b := range trace.Timeline(e.tr.Events()) {
			// A worker emits one reduce span per reduction round; the
			// phase's per-worker time is the round total, so fold the
			// per-round samples back over the pool that pulled.
			var reduce time.Duration
			if red, pulls := b.Stat("reduce"), b.Stat("pull").N; red.N > 0 && pulls > 0 {
				reduce = red.Mean * time.Duration(red.N) / time.Duration(pulls)
			}
			stepPhases = append(stepPhases, StepPhase{
				Step:    b.Step,
				Merge:   b.Stat("merge").Mean,
				Fetch:   b.Stat("fetch").Mean,
				Compute: b.Stat("compute").Mean,
				Publish: b.Stat("publish").Mean,
				Reduce:  reduce,
				Pull:    b.Stat("pull").Mean,
				Barrier: b.Stat("barrier").Max,
			})
		}
	}
	return &Result{
		ID:               e.id,
		Converged:        e.converged,
		Diverged:         e.diverged,
		ExecTime:         execTime,
		Steps:            len(e.history),
		FinalLoss:        finalLoss,
		History:          e.history,
		Removals:         e.removals,
		Cost:             e.meter.Report(),
		TotalUpdateBytes: e.totalUpdateBytes,
		Relaunches:       e.relaunches,
		Recovery:         e.recovery,
		StepPhases:       stepPhases,
		Faults:           e.faults.Metrics(),
	}, nil
}
