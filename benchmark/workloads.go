package main

import (
	"time"

	"mlless"
	"mlless/internal/faas"
	"mlless/internal/knee"
	"mlless/internal/tenant"
	"mlless/internal/vclock"
)

// A workload is one set of inputs the benchmark runs. Every input is a
// pure function of the seed; the simulator receives only the generated
// data. The "why" strings are repeated in BENCHMARK.json and README.md.
type workload struct {
	name  string
	fleet bool
	// streamProbe adds the StreamCriteo throughput measurement to the
	// workload's traced pass.
	streamProbe bool
	// stage generates the workload's inputs from the seed and stages
	// them on a fresh cluster (the timed set-up), returning everything
	// a repetition needs.
	stage func(seed uint64, sc scale) (*staged, error)
}

var workloads = []workload{
	{name: "pmf-isp-autotune", stage: stagePMFAutotune},
	{name: "lr-bsp-wide", streamProbe: true, stage: stageLRWide},
	{name: "pmf-bsp-tree", stage: stagePMFTree},
	{name: "fleet-unique", fleet: true, stage: stageFleetUnique},
	{name: "fleet-templated", fleet: true, stage: stageFleetTemplated},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sizes every workload. full is what BENCHMARK.json measures;
// smoke (P ≤ 4, ≤ 10 steps, ≤ 20 arrivals) keeps the package's tests
// under a few seconds while running the same code.
type scale struct {
	smoke bool

	pmfUsers, pmfItems, pmfRatings, pmfBatch int
	autotuneWorkers, autotuneMaxSteps        int
	treeWorkers, treeSteps                   int

	lrSamples, lrHashDim, lrBatch, lrWorkers, lrSteps int

	zooSamples, zooHashDim, zooBatch            int
	zooUsers, zooItems, zooRatings, zooPMFBatch int
	zooSteps                                    int
	uniqueArrivals, templatedArrivals           int

	replaySteps   int // cap on the layer replay's length
	streamSamples int
}

var fullScale = scale{
	pmfUsers: 1200, pmfItems: 2400, pmfRatings: 120_000, pmfBatch: 625,
	autotuneWorkers: 24, autotuneMaxSteps: 5000,
	treeWorkers: 32, treeSteps: 40,
	lrSamples: 60_000, lrHashDim: 100_000, lrBatch: 50, lrWorkers: 64, lrSteps: 100,
	zooSamples: 12_000, zooHashDim: 20_000, zooBatch: 125,
	zooUsers: 300, zooItems: 600, zooRatings: 30_000, zooPMFBatch: 156,
	zooSteps:       120,
	uniqueArrivals: 24, templatedArrivals: 2000,
	replaySteps:   150,
	streamSamples: 300_000,
}

var smokeScale = scale{
	smoke:    true,
	pmfUsers: 120, pmfItems: 240, pmfRatings: 6_000, pmfBatch: 125,
	autotuneWorkers: 4, autotuneMaxSteps: 10,
	treeWorkers: 4, treeSteps: 6,
	lrSamples: 2_000, lrHashDim: 2_000, lrBatch: 25, lrWorkers: 4, lrSteps: 8,
	zooSamples: 1_000, zooHashDim: 1_000, zooBatch: 50,
	zooUsers: 60, zooItems: 120, zooRatings: 2_000, zooPMFBatch: 50,
	zooSteps:       8,
	uniqueArrivals: 8, templatedArrivals: 20,
	replaySteps:   3,
	streamSamples: 4_000,
}

// staged is a workload after set-up: a golden cluster holding the
// staged datasets, and constructors for the job or fleet that runs on
// a copy of it.
type staged struct {
	golden  *mlless.Cluster
	buckets []string
	// stagedBytes is the shard-tier volume set-up wrote, for
	// dataset.stage_mb_per_s; stageTime is the time StageDatasetShards
	// alone took.
	stagedBytes int64
	stageTime   time.Duration

	// Single-job workloads.
	job        func() mlless.Job
	mustTarget bool // the run must reach Spec.TargetLoss

	// Fleet workloads.
	tenants  []tenant.Tenant
	platCap  int
	arrivals []tenant.Arrival
	zoo      []tenant.Template
}

// seedFor derives independent sub-seeds (dataset, shuffle, model init)
// from the benchmark seed with one splitmix64 round each, so
// neighbouring seeds share nothing.
func seedFor(seed uint64, stream uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const (
	streamData = iota + 1
	streamShuffle
	streamInit
	streamZooLR
	streamZooSVM
	streamZooPMF
)

// stageShards stages ds on st.golden's shard tier and accounts the
// bytes and time for dataset.stage_mb_per_s.
func (st *staged) stageShards(ds *mlless.Dataset, bucket string, batch int, seed uint64) int {
	written := st.golden.Metrics.Counter("obj.bytes_written")
	before := written.Load()
	t0 := time.Now()
	n := mlless.StageDatasetShards(st.golden, ds, bucket, batch, 0, seed)
	st.stageTime += time.Since(t0)
	st.stagedBytes += written.Load() - before
	st.buckets = append(st.buckets, bucket)
	return n
}

// freshCluster returns a new cluster holding a copy of the staged
// datasets: every repetition starts from empty substrates and zero
// counters. Re-staging is outside every timer.
func (st *staged) freshCluster() *mlless.Cluster {
	cl := mlless.NewCluster()
	if st.platCap > 0 {
		cfg := cl.Platform.Config()
		cfg.MaxConcurrent = st.platCap
		cl.Platform = faas.NewPlatformWithRegistry(cfg, cl.Metrics)
	}
	var clk vclock.Clock
	for _, b := range st.buckets {
		for _, k := range st.golden.COS.List(&clk, b, "") {
			if blob, ok := st.golden.COS.PeekView(b, k); ok {
				cl.COS.Put(&clk, b, k, blob)
			}
		}
	}
	return cl
}

// movieLensData generates rank-20 MovieLens-shaped ratings.
func movieLensData(seed uint64, users, items, ratings int) (*mlless.Dataset, mlless.MovieLensConfig) {
	cfg := mlless.MovieLensConfig{
		Users: users, Items: items, Ratings: ratings,
		Rank: 20, NoiseStd: 0.70, SignalStd: 0.80, Seed: seed,
	}
	return mlless.GenerateMovieLens(cfg), cfg
}

// stagePMF stages the MovieLens-1M-shaped dataset both PMF workloads
// train on and returns a constructor for their common job.
func stagePMF(seed uint64, sc scale, spec mlless.Spec) *staged {
	st := &staged{golden: mlless.NewCluster()}
	ds, cfg := movieLensData(seedFor(seed, streamData), sc.pmfUsers, sc.pmfItems, sc.pmfRatings)
	n := st.stageShards(ds, "ml1m", sc.pmfBatch, seedFor(seed, streamShuffle))
	mean, initSeed := ds.RatingMean, seedFor(seed, streamInit)
	spec.Data = mlless.DataShard
	st.job = func() mlless.Job {
		return mlless.Job{
			Spec:       spec,
			Model:      mlless.NewPMF(cfg.Users, cfg.Items, cfg.Rank, mean, 0.02, initSeed),
			Optimizer:  mlless.NewNesterov(mlless.Constant(20*float64(sc.pmfBatch)/625), 0.9),
			Bucket:     "ml1m",
			NumBatches: n,
			BatchSize:  sc.pmfBatch,
		}
	}
	return st
}

// stagePMFAutotune is the paper's headline configuration (Fig 5): ISP
// at v = 0.7 with the scale-in tuner, run to the RMSE 0.82 target.
//
// The knee detector is Kneedle, the paper's drop-in alternative (§4.2),
// here and in the zoo: the default slope threshold rejects a loss curve
// whose first five smoothed points rise, which this model's momentum
// does on about half the seeds — the tuner then never fires (0
// removals against 4) and the workload's virtual cost is a coin flip.
func stagePMFAutotune(seed uint64, sc scale) (*staged, error) {
	spec := mlless.Spec{
		Workers: sc.autotuneWorkers, Sync: mlless.ISP, Significance: 0.7,
		AutoTune: true, Sched: mlless.SchedulerConfig{Epoch: 2 * time.Second, Knee: knee.Kneedle{}},
		TargetLoss: 0.82, MaxSteps: sc.autotuneMaxSteps,
	}
	st := stagePMF(seed, sc, spec)
	// A ten-step smoke run cannot reach the target; only the full scale
	// counts a missed target as a failed operation.
	st.mustTarget = !sc.smoke
	return st, nil
}

// stagePMFTree runs the same data and model under BSP (dense updates)
// through the storage-collective tree exchange for a fixed step count.
func stagePMFTree(seed uint64, sc scale) (*staged, error) {
	spec := mlless.Spec{
		Workers: sc.treeWorkers, Sync: mlless.BSP,
		Exchange: mlless.ExchangeTree, TreeFanout: 4, MaxSteps: sc.treeSteps,
	}
	return stagePMF(seed, sc, spec), nil
}

// criteoData generates normalised Criteo-shaped samples.
func criteoData(seed uint64, samples, hashDim int) *mlless.Dataset {
	cfg := mlless.DefaultCriteoConfig()
	cfg.Samples, cfg.HashDim, cfg.Seed = samples, hashDim, seed
	ds := mlless.GenerateCriteo(cfg)
	mlless.NormalizeInMemory(ds, cfg.NumericFeatures)
	return ds
}

// stageLRWide is the sparse counter-case: logistic regression with
// Adam on Criteo-shaped data, the widest lock-step cohort, fixed steps.
func stageLRWide(seed uint64, sc scale) (*staged, error) {
	st := &staged{golden: mlless.NewCluster()}
	ds := criteoData(seedFor(seed, streamData), sc.lrSamples, sc.lrHashDim)
	n := st.stageShards(ds, "criteo", sc.lrBatch, seedFor(seed, streamShuffle))
	dim := ds.FeatureDim
	st.job = func() mlless.Job {
		return mlless.Job{
			Spec:       mlless.Spec{Workers: sc.lrWorkers, Sync: mlless.BSP, MaxSteps: sc.lrSteps, Data: mlless.DataShard},
			Model:      mlless.NewLogReg(dim, 1e-4),
			Optimizer:  mlless.NewAdam(mlless.Constant(0.002)),
			Bucket:     "criteo",
			NumBatches: n,
			BatchSize:  sc.lrBatch,
		}
	}
	return st, nil
}

// stageZoo stages the seed-derived LR/SVM/PMF zoo the fleets draw from
// and returns one template per workload at 2, 3 and 4 workers.
func stageZoo(seed uint64, sc scale) *staged {
	st := &staged{
		golden:  mlless.NewCluster(),
		platCap: 14,
		tenants: []tenant.Tenant{{Name: "t1", Quota: 10}, {Name: "t2", Quota: 10}, {Name: "t3", Quota: 7}, {Name: "t4", Quota: 7}},
	}
	shuffle := seedFor(seed, streamShuffle)

	lr := criteoData(seedFor(seed, streamZooLR), sc.zooSamples, sc.zooHashDim)
	nLR := st.stageShards(lr, "zoo-lr", sc.zooBatch, shuffle)
	svm := criteoData(seedFor(seed, streamZooSVM), sc.zooSamples, sc.zooHashDim)
	nSVM := st.stageShards(svm, "zoo-svm", sc.zooBatch, shuffle)
	pmf, pmfCfg := movieLensData(seedFor(seed, streamZooPMF), sc.zooUsers, sc.zooItems, sc.zooRatings)
	nPMF := st.stageShards(pmf, "zoo-pmf", sc.zooPMFBatch, shuffle)

	dim := lr.FeatureDim
	mean, initSeed := pmf.RatingMean, seedFor(seed, streamInit)
	// Fleet jobs honour shrink requests only past the knee, so they take
	// the detector stagePMFAutotune documents.
	spec := func(workers int) mlless.Spec {
		return mlless.Spec{Workers: workers, MaxSteps: sc.zooSteps, Data: mlless.DataShard,
			Sched: mlless.SchedulerConfig{Knee: knee.Kneedle{}}}
	}
	st.zoo = []tenant.Template{
		{Name: "zoo-lr", Weight: 1, New: func() mlless.Job {
			return mlless.Job{Spec: spec(2), Model: mlless.NewLogReg(dim, 1e-4),
				Optimizer: mlless.NewAdam(mlless.Constant(0.002)),
				Bucket:    "zoo-lr", NumBatches: nLR, BatchSize: sc.zooBatch}
		}},
		{Name: "zoo-svm", Weight: 1, New: func() mlless.Job {
			return mlless.Job{Spec: spec(3), Model: mlless.NewSVM(dim, 1e-4),
				Optimizer: mlless.NewNesterov(mlless.Constant(0.3), 0.9),
				Bucket:    "zoo-svm", NumBatches: nSVM, BatchSize: sc.zooBatch}
		}},
		{Name: "zoo-pmf", Weight: 1, New: func() mlless.Job {
			return mlless.Job{Spec: spec(4),
				Model:     mlless.NewPMF(pmfCfg.Users, pmfCfg.Items, pmfCfg.Rank, mean, 0.02, initSeed),
				Optimizer: mlless.NewNesterov(mlless.Constant(20*float64(sc.zooPMFBatch)/625), 0.9),
				Bucket:    "zoo-pmf", NumBatches: nPMF, BatchSize: sc.zooPMFBatch}
		}},
	}
	return st
}

// arrivalSeed fixes the fleets' submission schedule. The benchmark seed
// varies what the jobs train on (datasets, shuffles, model inits), not
// when they arrive or who submits them: a fleet's host cost follows the
// number of distinct (template, shrink, warm-pool) executions its
// schedule happens to need, and with a schedule per seed that number —
// and host_wall_s with it — moved ±20 % between seeds (README.md,
// "Seeds").
const arrivalSeed = 2026

// fleetArrivals draws n arrivals over the zoo with the library's own
// generator, which stamps each with its template's key so the fleet
// engine memoises executions; clearing the key makes it execute every
// admission.
func (st *staged) fleetArrivals(n int, templated bool) error {
	names := make([]string, len(st.tenants))
	for i, t := range st.tenants {
		names[i] = t.Name
	}
	arrivals, err := tenant.GenerateArrivals(arrivalSeed, names, st.zoo, n, 1500*time.Millisecond)
	if err != nil {
		return err
	}
	if !templated {
		for i := range arrivals {
			arrivals[i].TemplateKey = ""
		}
	}
	// Arrival.Job holds prototypes the engine never mutates, so one
	// schedule serves every repetition.
	st.arrivals = arrivals
	return nil
}

func stageFleetUnique(seed uint64, sc scale) (*staged, error) {
	st := stageZoo(seed, sc)
	return st, st.fleetArrivals(sc.uniqueArrivals, false)
}

func stageFleetTemplated(seed uint64, sc scale) (*staged, error) {
	st := stageZoo(seed, sc)
	return st, st.fleetArrivals(sc.templatedArrivals, true)
}
