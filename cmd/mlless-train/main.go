// Command mlless-train runs one MLLess training job on the simulated
// cloud and reports progress, convergence and the itemized bill.
//
// Usage:
//
//	mlless-train -model pmf -dataset ml10m -workers 24 -sync isp -v 0.7 -autotune
//	mlless-train -model lr -dataset criteo -workers 12 -target 0.58
//	mlless-train -model pmf -dataset ml10m -system pytorch
//	mlless-train -dataset ml1m -max-steps 60 -quiet -memprofile mem.pprof -cpuprofile cpu.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mlless"
	"mlless/internal/hostprof"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mlless-train:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		modelName = flag.String("model", "pmf", "model: lr | pmf")
		data      = flag.String("dataset", "ml10m", "dataset: criteo | ml1m | ml10m | ml20m")
		system    = flag.String("system", "mlless", "system: mlless | pytorch | pywren")
		workers   = flag.Int("workers", 12, "initial worker count P")
		batch     = flag.Int("batch", 625, "per-worker mini-batch size B")
		sync      = flag.String("sync", "bsp", "synchronization: bsp | isp | async")
		sig       = flag.Float64("v", 0.7, "ISP significance threshold v")
		autotune  = flag.Bool("autotune", false, "enable the scale-in auto-tuner")
		staleness = flag.Int("staleness", 1, "SSP staleness bound; async staleness cap K (1 = per-step sync)")
		exch      = flag.String("exchange", "ps", "gradient exchange: ps (parameter server) | tree (tree-reduce over object storage)")
		fanout    = flag.Int("tree-fanout", 0, "tree-reduce fan-out, >= 2 (0 = default; requires -exchange tree)")
		target    = flag.Float64("target", 0, "stop at this loss (0 = run max-steps)")
		maxSteps  = flag.Int("max-steps", 500, "step cap")
		lr        = flag.Float64("lr", 0, "learning rate (0 = model default)")
		seed      = flag.Uint64("seed", 1, "dataset seed")
		quiet     = flag.Bool("quiet", false, "suppress per-step progress")
		jsonOut   = flag.String("json", "", "write the full result (trace, evictions, bill) as JSON to this file")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (open in Perfetto)")
		timeline  = flag.Bool("timeline", false, "print the per-step phase-time decomposition table")
		metrics   = flag.Bool("metrics", false, "print the unified cluster metrics snapshot")

		faultSeed      = flag.Uint64("fault-seed", 1, "seed for deterministic fault injection")
		faultInvoke    = flag.Float64("fault-invoke", 0, "transient invocation failure probability")
		faultStraggler = flag.Float64("fault-straggler", 0, "cold-start straggler probability (heavy-tailed multiplier)")
		faultReclaim   = flag.Float64("fault-reclaim", 0, "mid-run container reclamation probability per invocation")
		reclaimLife    = flag.Duration("fault-reclaim-life", 20*time.Second, "mean container lifetime when reclaimed (demo scale; real platforms average ~5m)")
		faultKV        = flag.Float64("fault-kv", 0, "per-operation KV store failure probability")
		faultKVSlow    = flag.Float64("fault-kv-slow", 0, "per-operation KV store latency-spike probability")
		faultMQ        = flag.Float64("fault-mq", 0, "per-operation broker failure probability")
		faultMQSlow    = flag.Float64("fault-mq-slow", 0, "per-operation broker latency-spike probability")
	)
	flag.Float64Var(faultReclaim, "fault-reclaim-prob", 0, "alias for -fault-reclaim")
	prof := hostprof.Register(flag.CommandLine)
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProf(&err)

	for _, check := range []struct {
		name string
		val  int
	}{
		{"workers", *workers},
		{"batch", *batch},
		{"max-steps", *maxSteps},
		{"staleness", *staleness},
	} {
		if check.val < 1 {
			return fmt.Errorf("-%s must be >= 1, got %d", check.name, check.val)
		}
	}
	for _, check := range []struct {
		name string
		val  float64
	}{
		{"fault-invoke", *faultInvoke},
		{"fault-straggler", *faultStraggler},
		{"fault-reclaim", *faultReclaim},
		{"fault-kv", *faultKV},
		{"fault-kv-slow", *faultKVSlow},
		{"fault-mq", *faultMQ},
		{"fault-mq-slow", *faultMQSlow},
	} {
		if check.val < 0 || check.val > 1 {
			return fmt.Errorf("-%s must be a probability in [0, 1], got %g", check.name, check.val)
		}
	}
	if err := mlless.ValidateExchange(*exch, *fanout); err != nil {
		return err
	}
	if *fanout != 0 && *exch != mlless.ExchangeTree {
		return fmt.Errorf("-tree-fanout only applies to -exchange tree, got -exchange %s", *exch)
	}

	cluster := mlless.NewCluster()
	job, err := buildJob(cluster, *modelName, *data, *batch, *lr, *seed)
	if err != nil {
		return err
	}
	job.Spec.Workers = *workers
	job.Spec.TargetLoss = *target
	job.Spec.MaxSteps = *maxSteps
	job.Spec.AutoTune = *autotune
	job.Spec.Staleness = *staleness
	job.Spec.Exchange = *exch
	job.Spec.TreeFanout = *fanout
	switch *sync {
	case "bsp":
		job.Spec.Sync = mlless.BSP
	case "isp":
		job.Spec.Sync = mlless.ISP
		job.Spec.Significance = *sig
	case "async":
		job.Spec.Sync = mlless.Async
		job.Spec.Significance = *sig
	default:
		return fmt.Errorf("unknown sync model %q", *sync)
	}
	job.Spec.Faults = mlless.FaultSpec{
		Seed:            *faultSeed,
		InvokeFailProb:  *faultInvoke,
		StragglerProb:   *faultStraggler,
		ReclaimProb:     *faultReclaim,
		ReclaimMeanLife: *reclaimLife,
		KVFailProb:      *faultKV,
		KVSlowProb:      *faultKVSlow,
		MQFailProb:      *faultMQ,
		MQSlowProb:      *faultMQSlow,
	}

	var tracer *mlless.Tracer
	if *traceOut != "" || *timeline {
		tracer = mlless.NewTracer()
		job.Trace = tracer
	}

	fmt.Printf("training %s on %s: P=%d B=%d sync=%s autotune=%v system=%s\n",
		*modelName, *data, *workers, *batch, job.Spec.Sync, *autotune, *system)

	var res *mlless.Result
	switch *system {
	case "mlless":
		res, err = mlless.Train(cluster, job)
	case "pytorch":
		res, err = mlless.TrainServerful(cluster, job, mlless.DefaultServerfulConfig())
	case "pywren":
		res, err = mlless.TrainPyWren(cluster, job, mlless.DefaultPyWrenConfig())
	default:
		return fmt.Errorf("unknown system %q", *system)
	}
	if err != nil {
		return err
	}

	if !*quiet {
		for i, p := range res.History {
			if i%25 == 0 || i == len(res.History)-1 {
				fmt.Printf("  step %4d  t=%-12v loss=%.4f workers=%d\n",
					p.Step, p.Time.Round(time.Millisecond), p.Loss, p.Workers)
			}
		}
	}
	for _, r := range res.Removals {
		fmt.Printf("  auto-tuner evicted worker %d after step %d (pool -> %d)\n", r.Worker, r.Step, r.WorkersLeft)
	}
	fmt.Printf("done: converged=%v steps=%d exec=%v final-loss=%.4f relaunches=%d\n",
		res.Converged, res.Steps, res.ExecTime.Round(time.Millisecond), res.FinalLoss, res.Relaunches)
	if rec := res.Recovery; rec != (mlless.Recovery{}) {
		fmt.Printf("recovery: deaths=%d invoke-retries=%d restart=%v recompute=%v\n",
			rec.WorkerDeaths, rec.InvokeRetries,
			rec.RestartTime.Round(time.Millisecond), rec.RecomputeTime.Round(time.Millisecond))
	}
	fmt.Println("bill:")
	fmt.Print(res.Cost)
	if *timeline {
		fmt.Println("step timeline (ms):")
		if err := mlless.WriteStepTimeline(os.Stdout, tracer); err != nil {
			return err
		}
	}
	if *metrics {
		fmt.Println("cluster metrics:")
		if err := cluster.Metrics.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := mlless.WriteChromeTrace(f, tracer); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("trace written to", *traceOut, "(load it at https://ui.perfetto.dev)")
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.WriteJSON(f); err != nil {
			return err
		}
		fmt.Println("result written to", *jsonOut)
	}
	return nil
}

func buildJob(cluster *mlless.Cluster, modelName, data string, batch int, lr float64, seed uint64) (mlless.Job, error) {
	switch {
	case modelName == "lr" && data == "criteo":
		cfg := mlless.DefaultCriteoConfig()
		cfg.Seed = seed
		ds := mlless.GenerateCriteo(cfg)
		mlless.NormalizeInMemory(ds, cfg.NumericFeatures)
		n := mlless.StageDatasetShards(cluster, ds, "criteo", batch, 0, seed)
		if lr == 0 {
			lr = 0.01
		}
		return mlless.Job{
			Model:     mlless.NewLogReg(ds.FeatureDim, 1e-4),
			Optimizer: mlless.NewAdam(mlless.Constant(lr)),
			Bucket:    "criteo", NumBatches: n, BatchSize: batch,
		}, nil
	case modelName == "pmf":
		var cfg mlless.MovieLensConfig
		switch data {
		case "ml1m":
			cfg = mlless.MovieLensConfig{Users: 1200, Items: 2400, Ratings: 120_000, Rank: 20, NoiseStd: 0.7, SignalStd: 0.8}
		case "ml10m":
			cfg = mlless.MovieLens10MScale()
		case "ml20m":
			cfg = mlless.MovieLens20MScale()
		default:
			return mlless.Job{}, fmt.Errorf("pmf needs dataset ml1m|ml10m|ml20m, got %q", data)
		}
		cfg.Seed = seed
		ds := mlless.GenerateMovieLens(cfg)
		n := mlless.StageDatasetShards(cluster, ds, "ml", batch, 0, seed)
		if lr == 0 {
			lr = 20
		}
		return mlless.Job{
			Model:     mlless.NewPMF(cfg.Users, cfg.Items, cfg.Rank, ds.RatingMean, 0.02, seed),
			Optimizer: mlless.NewNesterov(mlless.Constant(lr), 0.9),
			Bucket:    "ml", NumBatches: n, BatchSize: batch,
		}, nil
	default:
		return mlless.Job{}, fmt.Errorf("unsupported model/dataset pair %s/%s", modelName, data)
	}
}
