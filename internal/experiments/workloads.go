package experiments

import (
	"sync"

	"mlless/internal/core"
	"mlless/internal/dataset"
	"mlless/internal/model"
	"mlless/internal/netmodel"
	"mlless/internal/objstore"
	"mlless/internal/optimizer"
	"mlless/internal/vclock"
)

// Workload is one of the paper's Table-1 jobs at simulator scale:
// dataset generator, staged mini-batches, model and optimizer
// prototypes, and the convergence thresholds the figures use.
type Workload struct {
	// Name identifies the job ("LR-Criteo", "PMF-ML10M", "PMF-ML20M").
	Name string
	// Paper describes the corresponding Table-1 row.
	Paper string
	// BatchSize is the per-worker mini-batch size B.
	BatchSize int
	// TargetLoss is the convergence threshold of Fig 4/5 (the paper
	// uses BCE 0.58 for LR and RMSE 0.82 for PMF).
	TargetLoss float64
	// PrudentLoss is the deep-convergence threshold of the Fig 6
	// narrative (the paper's RMSE 0.738 for ML-10M, 0.821 for ML-20M).
	PrudentLoss float64
	// V is the significance threshold the paper fixes for the system
	// comparison (v = 0.7, §6.2).
	V float64

	quick      bool
	newModel   func() model.Model
	newOpt     func() optimizer.Optimizer
	generate   func() *dataset.Dataset
	stageOnce  sync.Once
	staged     []stagedObject
	numBatch   int
	ratingMean float64
}

// stagedObject is one staged shard blob (or the manifest) under its
// object key, kept so every Make re-Puts bytes instead of re-encoding.
type stagedObject struct {
	key  string
	blob []byte
}

// stageSeed fixes the staging shuffle: identical across every system
// and run (part of the §6.1 sanity-check conditions).
const stageSeed = 97

// workload caches are package-level so repeated experiment runs reuse
// the (deterministic) generated datasets.
var (
	workloadMu    sync.Mutex
	workloadCache = map[string]*Workload{}
)

func cached(key string, build func() *Workload) *Workload {
	workloadMu.Lock()
	defer workloadMu.Unlock()
	if w, ok := workloadCache[key]; ok {
		return w
	}
	w := build()
	workloadCache[key] = w
	return w
}

// stage shuffles and encodes the workload's shards once, into a scratch
// store, and keeps the staged objects for fast re-staging.
func (w *Workload) stage() {
	w.stageOnce.Do(func() {
		ds := w.generate()
		w.ratingMean = ds.RatingMean
		scratch := objstore.New(netmodel.Link{})
		var clk vclock.Clock
		w.numBatch = dataset.StageShards(ds, scratch, &clk, "scratch", w.BatchSize, 0, stageSeed)
		for _, key := range scratch.List(&clk, "scratch", "") {
			blob, _ := scratch.PeekView("scratch", key)
			w.staged = append(w.staged, stagedObject{key, blob})
		}
	})
}

// restage uploads the staged objects into the workload's bucket on cl.
func (w *Workload) restage(cl *core.Cluster) {
	var clk vclock.Clock
	for _, o := range w.staged {
		cl.COS.Put(&clk, w.Name, o.key, o.blob)
	}
}

// job returns the workload's job over numBatch staged batches of the
// given size.
func (w *Workload) job(workers, numBatch, batch int) core.Job {
	return core.Job{
		Spec:       core.Spec{Workers: workers, TargetLoss: w.TargetLoss},
		Model:      w.newModel(),
		Optimizer:  w.newOpt(),
		Bucket:     w.Name,
		NumBatches: numBatch,
		BatchSize:  batch,
	}
}

// Make returns a fresh cluster with the workload staged plus the job
// spec'd with the given worker count. Callers adjust Spec fields
// (Sync, Significance, AutoTune, TargetLoss...) before core.Run.
func (w *Workload) Make(workers int) (*core.Cluster, core.Job) {
	return w.MakeShards(workers, 1)
}

// MakeShards is Make with the KV exchange tier hash-partitioned over
// the given shard count (1 reproduces Make exactly).
func (w *Workload) MakeShards(workers, shards int) (*core.Cluster, core.Job) {
	w.stage()
	cl := core.NewClusterWithShards(shards)
	w.restage(cl)
	return cl, w.job(workers, w.numBatch, w.BatchSize)
}

// makeWithBatch stages the workload at a different per-worker batch
// size — Table 3's constant-global-batch sweep requires B to shrink as
// P grows. The staging shuffle is Perm(n, seed), independent of B, so
// the sample stream is the one Make trains on, only cut differently.
// The dataset is regenerated (the generators are deterministic) rather
// than retained: only this sweep needs it after staging.
func makeWithBatch(w *Workload, workers, batch int) (*core.Cluster, core.Job) {
	w.stage() // records ratingMean for the model prototype
	cl := core.NewCluster()
	var clk vclock.Clock
	n := dataset.StageShards(w.generate(), cl.COS, &clk, w.Name, batch, 0, stageSeed)
	return cl, w.job(workers, n, batch)
}

// LRCriteo is the sparse logistic regression job of Table 1:
// Criteo-shaped data, Adam, B = 6250 (quick: a 10x smaller dataset with
// B scaled to keep the same steps-per-epoch).
func LRCriteo(quick bool) *Workload {
	key := "LR-Criteo"
	if quick {
		key += "-quick"
	}
	return cached(key, func() *Workload {
		cfg := dataset.DefaultCriteoConfig()
		cfg.Samples = 120_000
		batch := 1250
		if quick {
			cfg.Samples = 12_000
			cfg.HashDim = 20_000
			batch = 125
		}
		dim := cfg.HashDim + cfg.NumericFeatures
		return &Workload{
			Name:        key,
			Paper:       "LR on Criteo, Adam, B=6250 (Table 1)",
			BatchSize:   batch,
			TargetLoss:  0.58,
			PrudentLoss: 0.555,
			V:           0.7,
			quick:       quick,
			newModel:    func() model.Model { return model.NewLogReg(dim, 1e-4) },
			newOpt:      func() optimizer.Optimizer { return optimizer.NewAdamDefaults(optimizer.Constant(0.002)) },
			generate: func() *dataset.Dataset {
				ds := dataset.GenerateCriteo(cfg)
				// Min-max normalize in place (the staged form the paper
				// prepares with PyWren-IBM map-reduce, §3.2).
				dataset.NormalizeInPlace(ds, cfg.NumericFeatures)
				return ds
			},
		}
	})
}

// SVMCriteo is a sparse linear SVM over the same Criteo-shaped data as
// LRCriteo — the third model family of the zoo (§4.1's "robustness of
// many ML algorithms"), trained by subgradient descent on the hinge
// loss with Nesterov momentum.
func SVMCriteo(quick bool) *Workload {
	key := "SVM-Criteo"
	if quick {
		key += "-quick"
	}
	return cached(key, func() *Workload {
		cfg := dataset.DefaultCriteoConfig()
		cfg.Samples = 120_000
		batch := 1250
		if quick {
			cfg.Samples = 12_000
			cfg.HashDim = 20_000
			batch = 125
		}
		dim := cfg.HashDim + cfg.NumericFeatures
		return &Workload{
			Name:        key,
			Paper:       "linear SVM on Criteo-shaped data (zoo extension; hinge loss)",
			BatchSize:   batch,
			TargetLoss:  0.64,
			PrudentLoss: 0.60,
			V:           0.7,
			quick:       quick,
			newModel:    func() model.Model { return model.NewSVM(dim, 1e-4) },
			newOpt:      func() optimizer.Optimizer { return optimizer.NewNesterov(optimizer.Constant(0.3), 0.9) },
			generate: func() *dataset.Dataset {
				ds := dataset.GenerateCriteo(cfg)
				dataset.NormalizeInPlace(ds, cfg.NumericFeatures)
				return ds
			},
		}
	})
}

// PMF10M is probabilistic matrix factorization on MovieLens-10M-scale
// data: SGD + Nesterov momentum, B = 6250, rank 20 (Table 1).
func PMF10M(quick bool) *Workload {
	return pmfWorkload("PMF-ML10M", dataset.MovieLens10MScale(), 625, quick)
}

// PMF20M is the MovieLens-20M-scale variant: B = 12000, rank 20.
func PMF20M(quick bool) *Workload {
	return pmfWorkload("PMF-ML20M", dataset.MovieLens20MScale(), 1250, quick)
}

// PMF1M is the MovieLens-1M-scale job Fig 2 uses for its training-speed
// and curve-fitting micro-studies.
func PMF1M(quick bool) *Workload {
	cfg := dataset.MovieLensConfig{
		Users: 1_200, Items: 2_400, Ratings: 120_000,
		Rank: 20, NoiseStd: 0.70, SignalStd: 0.80, Seed: 5,
	}
	return pmfWorkload("PMF-ML1M", cfg, 625, quick)
}

func pmfWorkload(name string, cfg dataset.MovieLensConfig, batch int, quick bool) *Workload {
	key := name
	if quick {
		key += "-quick"
		cfg.Users /= 4
		cfg.Items /= 4
		cfg.Ratings /= 4
		batch /= 4
	}
	return cached(key, func() *Workload {
		// The per-sample step size is what convergence depends on; with
		// batch-averaged gradients the rate must scale with B (η/B
		// constant: η = 20 at the B = 625 reference).
		lr := 20.0 * float64(batch) / 625.0
		w := &Workload{
			Name:        key,
			Paper:       "PMF, SGD+Nesterov momentum, r=20 (Table 1)",
			BatchSize:   batch,
			TargetLoss:  0.82,
			PrudentLoss: 0.745,
			V:           0.7,
			quick:       quick,
			newOpt:      func() optimizer.Optimizer { return optimizer.NewNesterov(optimizer.Constant(lr), 0.9) },
			generate:    func() *dataset.Dataset { return dataset.GenerateMovieLens(cfg) },
		}
		// The PMF model needs the dataset's rating mean, recorded by the
		// staging pass (Make always stages before building models).
		w.newModel = func() model.Model {
			return model.NewPMF(cfg.Users, cfg.Items, cfg.Rank, w.ratingMean, 0.02, 131)
		}
		return w
	})
}
