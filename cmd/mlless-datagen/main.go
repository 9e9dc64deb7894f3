// Command mlless-datagen generates the synthetic datasets and writes
// them to disk as columnar shard files (internal/shard), produced by the
// streaming writers, which never hold the full dataset in memory.
//
// Usage:
//
//	mlless-datagen -dataset criteo -out ./data/criteo -batch 1250
//	mlless-datagen -dataset ml10m -out ./data/ml10m -batch 625 -batches-per-shard 16
//
// The dumps hold raw (unnormalized) numeric features: min-max
// normalization is a whole-dataset statistic, so it is applied at
// training time, not by the streaming generator.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mlless/internal/dataset"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mlless-datagen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name  = flag.String("dataset", "ml10m", "dataset: criteo | ml1m | ml10m | ml20m")
		out   = flag.String("out", "./data", "output directory")
		batch = flag.Int("batch", 625, "mini-batch size")
		seed  = flag.Uint64("seed", 1, "generator seed")
		bps   = flag.Int("batches-per-shard", 0, "mini-batches per shard file (0 = default)")
		par   = flag.Int("parallelism", 0, "shard-encoding worker count (0 = GOMAXPROCS; output is byte-identical at any value)")
	)
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	return dumpShards(*name, *out, *batch, *bps, *par, *seed)
}

// dumpShards streams the generator straight to shard files: memory
// stays bounded by parallelism x shard size, independent of -dataset.
func dumpShards(name, out string, batch, bps, par int, seed uint64) error {
	sc := dataset.StreamConfig{BatchSize: batch, BatchesPerShard: bps, Parallelism: par}
	sink := dataset.FileSink{Dir: out}
	var (
		stats dataset.StreamStats
		err   error
	)
	switch name {
	case "criteo":
		cfg := dataset.DefaultCriteoConfig()
		cfg.Seed = seed
		stats, err = dataset.StreamCriteo(cfg, sc, sink)
	case "ml1m":
		stats, err = dataset.StreamMovieLens(dataset.MovieLensConfig{
			Users: 1200, Items: 2400, Ratings: 120_000, Rank: 20,
			NoiseStd: 0.7, SignalStd: 0.8, Seed: seed,
		}, sc, sink)
	case "ml10m":
		cfg := dataset.MovieLens10MScale()
		cfg.Seed = seed
		stats, err = dataset.StreamMovieLens(cfg, sc, sink)
	case "ml20m":
		cfg := dataset.MovieLens20MScale()
		cfg.Seed = seed
		stats, err = dataset.StreamMovieLens(cfg, sc, sink)
	default:
		return fmt.Errorf("unknown dataset %q", name)
	}
	if err != nil {
		return err
	}
	manifest := fmt.Sprintf("dataset=%s\nformat=shard\nsamples=%d\nbatches=%d\nbatch_size=%d\nshards=%d\nseed=%d\n",
		name, stats.Samples, stats.Batches, batch, stats.Shards, seed)
	if err := os.WriteFile(filepath.Join(out, "MANIFEST"), []byte(manifest), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d shards (%d batches, %d samples, %.1f MB) to %s\n",
		stats.Shards, stats.Batches, stats.Samples, float64(stats.Bytes)/1e6, out)
	return nil
}
