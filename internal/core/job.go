package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/exchange"
	"mlless/internal/faults"
	"mlless/internal/model"
	"mlless/internal/optimizer"
	"mlless/internal/sched"
	"mlless/internal/trace"
)

// Validation errors.
var (
	// ErrNoWorkers reports a job with a non-positive worker count.
	ErrNoWorkers = errors.New("core: job needs at least one worker")
	// ErrNoData reports a job with no staged mini-batches.
	ErrNoData = errors.New("core: job has no staged mini-batches")
	// ErrModelTooLarge reports a model replica that cannot fit in a
	// worker's function memory.
	ErrModelTooLarge = errors.New("core: model replica exceeds function memory")
	// ErrAsyncAutoTune reports a job combining the async schedule with
	// the scale-in auto-tuner, whose evictions assume sync points.
	ErrAsyncAutoTune = errors.New("core: the scale-in auto-tuner requires a lock-step schedule")
	// ErrExchangeAsync reports a collective exchange strategy combined
	// with the async schedule; reduction rounds assume sync points.
	ErrExchangeAsync = errors.New("core: the scatter/tree exchange strategies require a lock-step schedule")
	// ErrExchangeStale reports a collective exchange strategy combined
	// with SSP: a reduced total folds exactly one step's updates, so the
	// pull window must be a single step.
	ErrExchangeStale = errors.New("core: the scatter/tree exchange strategies require per-step synchronization (staleness 1)")
	// ErrExchangeShards reports a collective exchange strategy on a
	// sharded KV tier: the collectives move updates through object
	// storage, so extra KV shards would only add idle rented VMs.
	ErrExchangeShards = errors.New("core: the scatter/tree exchange strategies bypass the KV tier; run them with a single shard")
	// ErrUnknownData reports a Spec.Data value other than "" or
	// DataShard.
	ErrUnknownData = errors.New("core: unknown data tier (the row-encoded \"batch\" tier was removed; columnar shards are the only tier)")
	// ErrBadTenant reports a tenant name containing '/', which would
	// break the collision-free namespace construction (the namespace is
	// the name's first '/'-separated segment; see faas.NamespaceOf).
	ErrBadTenant = errors.New("core: tenant names must not contain '/'")
	// ErrNegativeStart reports a job launched at a negative virtual time.
	ErrNegativeStart = errors.New("core: job start time must be >= 0")
	// ErrAsyncShrink reports control-plane shrink directives combined
	// with the async schedule; like the auto-tuner, pool shrinks assume
	// sync points (evictions must not lose published-but-unpulled
	// updates).
	ErrAsyncShrink = errors.New("core: control-plane shrink directives require a lock-step schedule")
	// ErrBadShrink reports a shrink directive with a non-positive worker
	// count or a negative time.
	ErrBadShrink = errors.New("core: shrink directives need Workers >= 1 and At >= 0")
)

// DataShard names the one data tier, for Spec.Data: batches live as
// contiguous blocks inside columnar shard blobs, each fetch is one
// ranged GET, and models evaluate straight off the zero-copy BatchView.
const DataShard = "shard"

// Spec is the tunable configuration of a training job.
type Spec struct {
	// Workers is the initial worker count P.
	Workers int
	// Sync selects the synchronization model: BSP or ISP (§3.1, §4.1)
	// drive workers in lock step; Async (journal MLLess) removes the
	// global barrier and bounds replica drift by Staleness.
	Sync consistency.Mode
	// Significance is the ISP base threshold v (ignored under BSP).
	Significance float64
	// AutoTune enables the scale-in scheduler (§4.2).
	AutoTune bool
	// Sched configures the auto-tuner; zero values take the paper's
	// defaults (epoch 20 s, Δ 10 s).
	Sched sched.Config
	// TargetLoss stops the job once the smoothed global loss reaches it;
	// 0 disables the criterion (the job runs MaxSteps).
	TargetLoss float64
	// MaxSteps caps the run (default 5000).
	MaxSteps int
	// MemoryMiB sizes the worker functions (default 2048, the largest
	// IBM Cloud Functions offers, as in §6.1).
	MemoryMiB int
	// LossAlpha is the EWMA factor for the global loss stream
	// (default 0.25).
	LossAlpha float64
	// MaxWallClock aborts the job once the virtual clock passes it
	// (0 = unlimited); Fig 6/7 use it to bound non-converging systems.
	MaxWallClock time.Duration
	// Staleness enables the SSP extension the paper mentions as "easy
	// enough to integrate" (§3.1): workers synchronize (pull peer
	// updates and barrier) every Staleness steps instead of every step,
	// bounding replica divergence by the staleness window. 0 or 1 keeps
	// the paper's per-step synchronization. Under Sync == Async it is
	// the staleness cap K instead: a worker may run at most K steps
	// ahead of the slowest peer (K = 1 reproduces BSP's update
	// sequence without its barriers).
	Staleness int
	// FilterVariant selects the significance-filter design for the
	// ablation benches; the zero value is the paper's
	// accumulate-and-flush filter (§4.1).
	FilterVariant consistency.Variant
	// NoEvictionMerge disables the one-shot reintegration of a leaving
	// worker's replica (§4.2, eviction policy) — an ablation: the
	// residual updates the worker was withholding are then lost.
	NoEvictionMerge bool
	// Patience stops the job when the smoothed loss has not improved
	// for this many consecutive steps (0 disables) — a convergence
	// criterion for jobs without a known target loss.
	Patience int
	// Exchange selects the gradient-exchange strategy (see
	// internal/exchange): "ps" (the default) is the paper's KV-mediated
	// parameter server; "scatter" and "tree" are storage collectives
	// that reduce updates through the object store. The collectives
	// require the lock-step schedule with per-step synchronization and a
	// single KV shard.
	Exchange string
	// TreeFanout is the tree exchange's fan-in degree (0 selects the
	// default of 4; meaningful only with Exchange == "tree").
	TreeFanout int
	// Data is a leftover of the two-tier era that benchmark/ still
	// sets: it must be "" or DataShard, anything else is rejected with
	// ErrUnknownData. The next benchmark-archetype PR removes the field.
	Data string
	// Faults configures deterministic fault injection for the run (see
	// internal/faults): transient invocation failures, cold-start
	// stragglers, mid-run container reclamation and KV/broker fault
	// delays, all seeded. The zero value disables every fault.
	Faults faults.Spec
	// Tenant, when non-empty, prefixes the job's entire key/queue/billing
	// namespace ("<tenant>/jobN/..." instead of "jobN/...") and places
	// its FaaS activations in the tenant's namespace, where they count
	// against any per-tenant quota (faas.SetQuota). Must not contain
	// '/'. Empty (the default) keeps the standalone namespace and
	// behavior byte-identical to earlier builds.
	Tenant string
	// StartAt is the virtual time the job launches — its admission time
	// under the multi-tenant control plane (internal/tenant). Every
	// instance boots at StartAt, History times are absolute, and
	// Result.ExecTime measures from StartAt. 0 (the default) reproduces
	// the standalone timeline exactly.
	StartAt time.Duration
	// Shrink schedules control-plane pool-shrink requests: once the
	// virtual clock passes a directive's At, the engine asks the tuner
	// to give up Workers workers. Requests are honored only at sync
	// points, never before the loss-curve knee, and never push the pool
	// below MinWorkers (Sched.MinWorkers; the same floor as the
	// auto-tuner). Requires a lock-step schedule. The control plane uses
	// this to ask running jobs to scale in when the shared platform is
	// contended.
	Shrink []ShrinkDirective
}

// ShrinkDirective is one scheduled control-plane request for a job to
// give up workers (see Spec.Shrink).
type ShrinkDirective struct {
	// At is the virtual time the request takes effect (absolute, like
	// Spec.StartAt).
	At time.Duration
	// Workers is how many workers the job is asked to release.
	Workers int
}

func (s Spec) withDefaults() Spec {
	if s.Sync == 0 {
		s.Sync = consistency.BSP
	}
	if s.Sync == consistency.BSP {
		s.Significance = 0
	}
	if s.MaxSteps <= 0 {
		s.MaxSteps = 5000
	}
	if s.MemoryMiB <= 0 {
		s.MemoryMiB = 2048
	}
	if s.LossAlpha <= 0 {
		s.LossAlpha = 0.25
	}
	if s.Staleness < 1 {
		s.Staleness = 1
	}
	if s.Exchange == "" {
		s.Exchange = exchange.KindParamServer
	}
	return s
}

// Job couples a spec with the model, optimizer and staged dataset it
// trains on. Model and Optimizer act as prototypes: every worker gets an
// independent clone, so a Job can be reused across runs.
type Job struct {
	Spec Spec
	// Model is the prototype replica (cloned per worker).
	Model model.Model
	// Optimizer is the prototype optimizer (cloned per worker).
	Optimizer optimizer.Optimizer
	// Bucket is the object-store bucket holding the staged shards and
	// their manifest (dataset.StageShards).
	Bucket string
	// NumBatches is the staged mini-batch count; it must match the
	// bucket's manifest.
	NumBatches int
	// BatchSize is the per-worker mini-batch size B (metadata for
	// reporting; the staged batches define the actual sizes).
	BatchSize int
	// Trace, when non-nil, records the run's virtual-time trace: engine
	// phases, substrate operations, FaaS lifecycle, scheduler decisions
	// and fault recovery (see internal/trace). The engine installs it on
	// every cluster service for the duration of the run and removes it at
	// teardown. Nil (the default) disables tracing at zero cost.
	Trace *trace.Tracer

	// drv, when non-nil, replaces the parallel driver. In-package tests
	// set it to seqDriver{}, the oracle the parallel driver is pinned
	// against.
	drv driver
}

func (j Job) validate(memoryMiB int) error {
	if j.Spec.Workers <= 0 {
		return ErrNoWorkers
	}
	if j.NumBatches <= 0 {
		return ErrNoData
	}
	if j.Model == nil {
		return errors.New("core: job has no model")
	}
	if j.Optimizer == nil {
		return errors.New("core: job has no optimizer")
	}
	if j.Spec.Sync == consistency.Async && j.Spec.AutoTune {
		return ErrAsyncAutoTune
	}
	if strings.ContainsRune(j.Spec.Tenant, '/') {
		return fmt.Errorf("%w (tenant %q)", ErrBadTenant, j.Spec.Tenant)
	}
	if j.Spec.StartAt < 0 {
		return ErrNegativeStart
	}
	if len(j.Spec.Shrink) > 0 {
		if j.Spec.Sync == consistency.Async {
			return ErrAsyncShrink
		}
		for _, d := range j.Spec.Shrink {
			if d.Workers < 1 || d.At < 0 {
				return fmt.Errorf("%w (got Workers=%d At=%v)", ErrBadShrink, d.Workers, d.At)
			}
		}
	}
	if err := exchange.Validate(j.Spec.Exchange, j.Spec.TreeFanout); err != nil {
		return err
	}
	if exchange.IsCollective(j.Spec.Exchange) {
		if j.Spec.Sync == consistency.Async {
			return ErrExchangeAsync
		}
		if j.Spec.Staleness > 1 {
			return ErrExchangeStale
		}
	}
	if j.Spec.Data != "" && j.Spec.Data != DataShard {
		return fmt.Errorf("%w: got %q", ErrUnknownData, j.Spec.Data)
	}
	// A replica must fit beside optimizer state and a mini-batch in
	// function memory: ~8 bytes/param for the model plus ~16 for
	// optimizer state (Adam worst case), with 4x headroom for the
	// runtime (§2's "loading all training data into memory" is exactly
	// what this forbids).
	replicaBytes := int64(j.Model.NumParams()) * 24
	if replicaBytes*2 > int64(memoryMiB)*1024*1024 {
		return fmt.Errorf("%w: %d params need ~%d MiB, function has %d MiB",
			ErrModelTooLarge, j.Model.NumParams(), replicaBytes*2/(1024*1024), memoryMiB)
	}
	return nil
}
