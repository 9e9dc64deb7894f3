// Command mlless-datagen generates the synthetic datasets and writes
// them to disk — as encoded mini-batch files (the object-store staging
// the driver normally performs) or, with -format shard, as columnar
// shard files produced by the streaming writers, which never hold the
// full dataset in memory.
//
// Usage:
//
//	mlless-datagen -dataset criteo -out ./data/criteo -batch 1250
//	mlless-datagen -dataset ml10m -out ./data/ml10m -batch 625
//	mlless-datagen -dataset criteo -out ./data/criteo -format shard
//
// Shard dumps hold raw (unnormalized) numeric features: min-max
// normalization is a whole-dataset statistic, so it is applied at
// training time, not by the streaming generator.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mlless/internal/dataset"
	"mlless/internal/netmodel"
	"mlless/internal/objstore"
	"mlless/internal/vclock"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mlless-datagen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name   = flag.String("dataset", "ml10m", "dataset: criteo | ml1m | ml10m | ml20m")
		out    = flag.String("out", "./data", "output directory")
		batch  = flag.Int("batch", 625, "mini-batch size")
		seed   = flag.Uint64("seed", 1, "generator seed")
		format = flag.String("format", "shard", "on-disk format: shard (streaming columnar shards) | batch (one encoded object per mini-batch)")
		bps    = flag.Int("batches-per-shard", 0, "mini-batches per shard file (0 = default; requires -format shard)")
		par    = flag.Int("parallelism", 0, "shard-encoding worker count (0 = GOMAXPROCS; output is byte-identical at any value)")
	)
	flag.Parse()

	switch *format {
	case "batch", "shard":
	default:
		return fmt.Errorf("-format must be batch or shard, got %q", *format)
	}
	if *bps != 0 && *format != "shard" {
		return fmt.Errorf("-batches-per-shard only applies to -format shard")
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if *format == "shard" {
		return dumpShards(*name, *out, *batch, *bps, *par, *seed)
	}
	return dumpBatches(*name, *out, *batch, *seed)
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

func dumpBatches(name, out string, batch int, seed uint64) error {
	var ds *dataset.Dataset
	numeric := 0
	switch name {
	case "criteo":
		cfg := dataset.DefaultCriteoConfig()
		cfg.Seed = seed
		ds = dataset.GenerateCriteo(cfg)
		numeric = cfg.NumericFeatures
	case "ml1m":
		ds = dataset.GenerateMovieLens(dataset.MovieLensConfig{
			Users: 1200, Items: 2400, Ratings: 120_000, Rank: 20,
			NoiseStd: 0.7, SignalStd: 0.8, Seed: seed,
		})
	case "ml10m":
		cfg := dataset.MovieLens10MScale()
		cfg.Seed = seed
		ds = dataset.GenerateMovieLens(cfg)
	case "ml20m":
		cfg := dataset.MovieLens20MScale()
		cfg.Seed = seed
		ds = dataset.GenerateMovieLens(cfg)
	default:
		return fmt.Errorf("unknown dataset %q", name)
	}

	// Stage through an in-memory object store (applying the map-reduce
	// min-max normalization for feature data), then dump to disk.
	store := objstore.New(netmodel.Link{})
	var clk vclock.Clock
	n := dataset.Stage(ds, store, &clk, "dump", batch, seed)
	if numeric > 0 {
		if err := dataset.NormalizeMinMax(store, &clk, "dump", n, numeric); err != nil {
			return err
		}
	}

	total := 0
	for i := 0; i < n; i++ {
		buf, err := store.Get(&clk, "dump", dataset.BatchKey(i))
		if err != nil {
			return err
		}
		path := filepath.Join(out, fmt.Sprintf("batch-%08d.bin", i))
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return err
		}
		total += len(buf)
	}
	manifest := fmt.Sprintf("dataset=%s\nsamples=%d\nbatches=%d\nbatch_size=%d\nfeature_dim=%d\nusers=%d\nitems=%d\nseed=%d\n",
		name, ds.Len(), n, batch, ds.FeatureDim, ds.NumUsers, ds.NumItems, seed)
	if err := os.WriteFile(filepath.Join(out, "MANIFEST"), []byte(manifest), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d batches (%d samples, %.1f MB) to %s\n", n, ds.Len(), float64(total)/1e6, out)
	return nil
}
