// Package mlless is a from-scratch Go reproduction of MLLess, the
// FaaS-based machine-learning training system of Sánchez-Artigas and
// Gimeno Sarroca, "Experience Paper: Towards Enhancing Cost Efficiency
// in Serverless Machine Learning Training" (Middleware '21).
//
// The package trains real models (sparse logistic regression, matrix
// factorization) with real SGD mathematics over a simulated serverless
// cloud: a FaaS platform with cold starts, memory-proportional CPU and
// per-GB-second billing; a Redis-like key-value store carrying model
// updates; a broker carrying control messages; and an object store
// holding mini-batches as columnar shards. Wall-clock time and dollar
// costs are produced by
// a calibrated analytical model driven by the real byte counts and
// floating-point work of the algorithms.
//
// The paper's two optimizations are implemented faithfully:
//
//   - the ISP significance filter (§4.1), which withholds per-parameter
//     updates until their accumulated relative magnitude exceeds the
//     decaying threshold v/√t;
//   - the scale-in auto-tuner (§4.2), which detects the knee of the loss
//     curve, fits the paper's learning-curve families, and evicts workers
//     whose marginal contribution no longer justifies their cost.
//
// Quickstart:
//
//	cluster := mlless.NewCluster()
//	cfg := mlless.DefaultCriteoConfig()
//	ds := mlless.GenerateCriteo(cfg)
//	mlless.NormalizeInMemory(ds, cfg.NumericFeatures)
//	n := mlless.StageDatasetShards(cluster, ds, "train", 1250, 0, 1)
//	job := mlless.Job{
//		Spec:       mlless.Spec{Workers: 12, Sync: mlless.ISP, Significance: 0.7, TargetLoss: 0.58},
//		Model:      mlless.NewLogReg(ds.FeatureDim, 1e-4),
//		Optimizer:  mlless.NewAdam(mlless.Constant(0.01)),
//		Bucket:     "train",
//		NumBatches: n,
//		BatchSize:  1250,
//	}
//	result, err := mlless.Train(cluster, job)
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-vs-measured record of every reproduced table and figure.
package mlless

import (
	"io"

	"mlless/internal/baseline/pywren"
	"mlless/internal/baseline/serverful"
	"mlless/internal/consistency"
	"mlless/internal/core"
	"mlless/internal/cost"
	"mlless/internal/dataset"
	"mlless/internal/exchange"
	"mlless/internal/faults"
	"mlless/internal/model"
	"mlless/internal/optimizer"
	"mlless/internal/sched"
	"mlless/internal/shard"
	"mlless/internal/sparse"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// Core types.
type (
	// Cluster bundles the simulated cloud services one or more jobs run
	// against.
	Cluster = core.Cluster
	// Job couples a Spec with a model, optimizer and staged dataset.
	Job = core.Job
	// Spec is the tunable configuration of a training job.
	Spec = core.Spec
	// Result is the outcome of a training run: convergence, virtual
	// time, loss history, evictions and the itemized bill.
	Result = core.Result
	// LossPoint is one step of the training trace.
	LossPoint = core.LossPoint
	// Removal records one auto-tuner eviction.
	Removal = core.Removal
	// ComputeModel converts floating-point work to virtual time.
	ComputeModel = core.ComputeModel
	// SchedulerConfig tunes the scale-in auto-tuner (§4.2). The zero
	// value selects the paper's settings (epoch 20 s, Δ 10 s).
	SchedulerConfig = sched.Config
	// CostReport is an itemized bill.
	CostReport = cost.Report
	// CostComponent is one billed element.
	CostComponent = cost.Component
	// FaultSpec configures seeded fault injection for a job (set it on
	// Spec.Faults): transient invocation failures, cold-start
	// stragglers, mid-run container reclamation and KV/broker fault
	// delays. The zero value disables every fault; a fixed seed makes
	// runs bit-identical.
	FaultSpec = faults.Spec
	// FaultMetrics counts the faults injected into a run.
	FaultMetrics = faults.Metrics
	// Recovery aggregates the fault-recovery work a run performed.
	Recovery = core.Recovery
	// StepPhase is one step's time decomposition from a traced run.
	StepPhase = core.StepPhase
)

// Observability types (see internal/trace and DESIGN.md §7).
type (
	// Tracer records a deterministic virtual-time trace of a run. Set
	// one on Job.Trace (NewTracer) to enable tracing; nil disables it at
	// zero cost.
	Tracer = trace.Tracer
	// MetricsRegistry is the unified counter namespace of a cluster
	// (Cluster.Metrics): every substrate's counters under dotted names.
	MetricsRegistry = trace.Registry
	// TraceEvent is one recorded span or instant.
	TraceEvent = trace.Event
)

// NewTracer returns an empty, enabled tracer for Job.Trace.
func NewTracer() *Tracer { return trace.New() }

// WriteChromeTrace renders a recorded trace in the Chrome trace-event
// JSON format (loadable at https://ui.perfetto.dev). The output is
// byte-identical across runs with equal seeds.
func WriteChromeTrace(w io.Writer, tr *Tracer) error {
	return trace.WriteChrome(w, tr.Events())
}

// WriteStepTimeline renders a recorded trace as a per-step table of the
// engine-phase time decomposition (§5's t_step breakdown).
func WriteStepTimeline(w io.Writer, tr *Tracer) error {
	return trace.WriteTimeline(w, tr.Events())
}

// ML types.
type (
	// Model is a trainable ML model over a flat parameter vector;
	// implement it (loss and gradient over a BatchView) to train custom
	// models on MLLess.
	Model = model.Model
	// Optimizer turns mini-batch gradients into parameter updates.
	Optimizer = optimizer.Optimizer
	// Schedule is a learning-rate schedule.
	Schedule = optimizer.Schedule
	// Constant is a fixed learning rate.
	Constant = optimizer.Constant
	// InvSqrt decays the rate as η/√t (Theorem 1's schedule).
	InvSqrt = optimizer.InvSqrt
	// StepDecay multiplies the rate by Factor every Every steps.
	StepDecay = optimizer.StepDecay
	// Warmup linearly ramps the rate before delegating to a schedule.
	Warmup = optimizer.Warmup
	// Vector is a sparse float64 vector (gradients, updates).
	Vector = sparse.Vector
	// Dense is a dense float64 vector (model parameters).
	Dense = sparse.Dense
)

// Data types.
type (
	// Dataset is an in-memory training dataset.
	Dataset = dataset.Dataset
	// Sample is one training example.
	Sample = dataset.Sample
	// CriteoConfig parameterizes the synthetic Criteo-like generator.
	CriteoConfig = dataset.CriteoConfig
	// MovieLensConfig parameterizes the synthetic MovieLens-like
	// generator.
	MovieLensConfig = dataset.MovieLensConfig
	// BatchView is a zero-copy view of one staged mini-batch, the
	// argument of Model.LossView and Model.GradientView: Len samples,
	// each either a rating (User, Item, Rating) or a label plus sorted
	// sparse features (Label, Dot, ForEachPair).
	BatchView = shard.BatchView
)

// Baseline types.
type (
	// ServerfulConfig parameterizes the PyTorch-like IaaS baseline.
	ServerfulConfig = serverful.Config
	// PyWrenConfig parameterizes the PyWren-IBM-like baseline.
	PyWrenConfig = pywren.Config
)

// SyncMode selects the synchronization model.
type SyncMode = consistency.Mode

// FilterVariant selects the significance-filter design (ablations).
type FilterVariant = consistency.Variant

// Significance-filter designs; FilterAccumulate is the paper's (§4.1).
const (
	FilterAccumulate = consistency.Accumulate
	FilterDrop       = consistency.Drop
	FilterNoDecay    = consistency.NoDecay
)

// Synchronization models (§3.1, §4.1; async from the journal version).
const (
	// BSP is Bulk Synchronous Parallel: every update propagates every
	// step.
	BSP = consistency.BSP
	// ISP is Insignificance-bounded Synchronous Parallel: only
	// significant accumulated updates propagate.
	ISP = consistency.ISP
	// Async removes the global barrier: workers free-run on their own
	// clocks under a bounded staleness cap (Spec.Staleness), pulling
	// peer updates as they are announced. Composes with the ISP filter.
	Async = consistency.Async
)

// Gradient-exchange strategies (Spec.Exchange). They move the same
// per-step updates but through different storage patterns, trading
// request fees against transfer serialization (see DESIGN.md §12).
const (
	// ExchangeParamServer is the paper's indirect path: each worker
	// parks its update in the KV tier and every peer reads all P-1 of
	// them. The default; reproduces the seed traces byte-for-byte.
	ExchangeParamServer = exchange.KindParamServer
	// ExchangeScatter is scatter-reduce over the object store: each
	// worker reduces one chunk of the coordinate space and republishes
	// the reduced chunk.
	ExchangeScatter = exchange.KindScatter
	// ExchangeTree is hierarchical tree-reduce over the object store
	// with configurable fan-out (Spec.TreeFanout).
	ExchangeTree = exchange.KindTree
)

// ValidateExchange reports whether kind names a known exchange strategy
// and fanout is a usable tree fan-out for it (0 means the default).
func ValidateExchange(kind string, fanout int) error {
	return exchange.Validate(kind, fanout)
}

// NewCluster builds a simulated deployment with the paper's link
// parameters and FaaS limits.
func NewCluster() *Cluster { return core.NewCluster() }

// NewClusterWithShards builds a deployment whose KV exchange tier is
// hash-partitioned over the given number of shards; batched exchange
// reads fan out per shard over concurrent connections and each shard
// bills its own Redis VM. One shard reproduces NewCluster exactly.
func NewClusterWithShards(shards int) *Cluster { return core.NewClusterWithShards(shards) }

// Train runs a job on the cluster with the MLLess engine.
func Train(cl *Cluster, job Job) (*Result, error) { return core.Run(cl, job) }

// TrainServerful runs the job on the PyTorch-like VM baseline (§6.1).
func TrainServerful(cl *Cluster, job Job, cfg ServerfulConfig) (*Result, error) {
	return serverful.Train(cl.COS, job, cfg)
}

// DefaultServerfulConfig returns the calibrated IaaS baseline settings.
func DefaultServerfulConfig() ServerfulConfig { return serverful.DefaultConfig() }

// TrainPyWren runs the job on the PyWren-IBM-like map-reduce baseline.
func TrainPyWren(cl *Cluster, job Job, cfg PyWrenConfig) (*Result, error) {
	return pywren.Train(cl.Platform, cl.COS, job, cfg)
}

// DefaultPyWrenConfig returns the calibrated map-reduce baseline
// settings.
func DefaultPyWrenConfig() PyWrenConfig { return pywren.DefaultConfig() }

// Models.

// NewLogReg builds sparse binary logistic regression over dim input
// features with active-coordinate L2 strength l2.
func NewLogReg(dim int, l2 float64) Model { return model.NewLogReg(dim, l2) }

// NewPMF builds probabilistic matrix factorization of a users×items
// rating matrix at the given rank, with global mean, factor L2 and a
// deterministic init seed.
func NewPMF(users, items, rank int, mean, l2 float64, seed uint64) Model {
	return model.NewPMF(users, items, rank, mean, l2, seed)
}

// NewSVM builds a sparse linear SVM (hinge loss) over dim features with
// active-coordinate L2 strength l2.
func NewSVM(dim int, l2 float64) Model { return model.NewSVM(dim, l2) }

// Optimizers (§5: "the models and optimizers (SGD, SGD with momentum,
// ADAM, etc.)").

// NewSGD returns plain SGD.
func NewSGD(lr Schedule) Optimizer { return optimizer.NewSGD(lr) }

// NewMomentum returns SGD with heavy-ball momentum μ.
func NewMomentum(lr Schedule, mu float64) Optimizer { return optimizer.NewMomentum(lr, mu) }

// NewNesterov returns SGD with Nesterov momentum μ (Table 1's PMF
// optimizer).
func NewNesterov(lr Schedule, mu float64) Optimizer { return optimizer.NewNesterov(lr, mu) }

// NewAdam returns Adam with canonical hyperparameters (Table 1's LR
// optimizer).
func NewAdam(lr Schedule) Optimizer { return optimizer.NewAdamDefaults(lr) }

// Datasets.

// DefaultCriteoConfig returns the Criteo-shaped generator settings.
func DefaultCriteoConfig() CriteoConfig { return dataset.DefaultCriteoConfig() }

// MovieLens10MScale returns the MovieLens-10M-shaped generator settings.
func MovieLens10MScale() MovieLensConfig { return dataset.MovieLens10MScale() }

// MovieLens20MScale returns the MovieLens-20M-shaped generator settings.
func MovieLens20MScale() MovieLensConfig { return dataset.MovieLens20MScale() }

// GenerateCriteo produces a synthetic click-prediction dataset with the
// Criteo shape (13 numeric + 26 hashed categorical features).
func GenerateCriteo(cfg CriteoConfig) *Dataset {
	ds := dataset.GenerateCriteo(cfg)
	return ds
}

// GenerateMovieLens produces a synthetic ratings dataset with
// MovieLens-like statistics.
func GenerateMovieLens(cfg MovieLensConfig) *Dataset {
	return dataset.GenerateMovieLens(cfg)
}

// DataShard is the only value Spec.Data accepts besides "": the one
// data tier (see internal/shard and DESIGN.md §13). benchmark/ still
// sets it; the next benchmark-archetype PR removes it with Spec.Data.
const DataShard = core.DataShard

// StageDatasetShards shuffles ds deterministically into mini-batches of
// size batchSize and uploads them to the cluster's object store under
// bucket as columnar shards — batchesPerShard batches per shard blob (0
// selects the default of 8) plus a manifest — returning the staged
// batch count. For Criteo-shaped data, run NormalizeInMemory first.
func StageDatasetShards(cl *Cluster, ds *Dataset, bucket string, batchSize, batchesPerShard int, seed uint64) int {
	var clk vclock.Clock
	return dataset.StageShards(ds, cl.COS, &clk, bucket, batchSize, batchesPerShard, seed)
}

// NormalizeInMemory min-max scales the first numericFeatures
// coordinates of an in-memory dataset to [0, 1], before staging.
func NormalizeInMemory(ds *Dataset, numericFeatures int) {
	dataset.NormalizeInPlace(ds, numericFeatures)
}
