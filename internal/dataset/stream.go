package dataset

import (
	"fmt"
	"runtime"

	"mlless/internal/shard"
)

// StreamConfig tunes StreamCriteo's shard writer.
type StreamConfig struct {
	// BatchSize is the staged mini-batch size (default 1000).
	BatchSize int
	// BatchesPerShard is how many batches one shard blob packs (default
	// DefaultBatchesPerShard). A shard's worth of samples is also the
	// pipeline's chunk: peak memory is O(Parallelism × chunk), never
	// O(dataset).
	BatchesPerShard int
	// Parallelism is the encoder worker count (default GOMAXPROCS). The
	// emitted shard bytes are identical for every value: the random
	// draws happen on one sequential scanner, workers only hash, score
	// and serialize fully-determined chunks.
	Parallelism int
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.BatchSize <= 0 {
		c.BatchSize = 1000
	}
	if c.BatchesPerShard <= 0 {
		c.BatchesPerShard = DefaultBatchesPerShard
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// StreamStats summarizes one streaming generation run.
type StreamStats struct {
	Samples int
	Batches int
	Shards  int
	// Bytes is the total size of the emitted shard blobs.
	Bytes int64
}

// ShardSink consumes finished shard blobs. WriteShard is called
// sequentially in shard-index order; the blob must not be retained
// (the pipeline reuses nothing today, but the contract keeps sinks
// copy-or-write).
type ShardSink interface {
	WriteShard(i int, blob []byte) error
}

// CountSink discards blobs and tallies them: benchmark plumbing for
// generation runs too large to retain.
type CountSink struct {
	Shards int
	Bytes  int64
}

// WriteShard implements ShardSink.
func (c *CountSink) WriteShard(_ int, blob []byte) error {
	c.Shards++
	c.Bytes += int64(len(blob))
	return nil
}

// StreamCriteo generates cfg.Samples Criteo-like examples directly
// into columnar shards without ever materializing the dataset. It is
// GenerateCriteo with a shard encoder in place of the in-memory
// samples: the same scanner makes the same draws (so the same seed
// yields the same samples), and each worker turns a shard-sized chunk
// of draws into a shard blob through the same rows. Shards carry
// samples in generation order — the draws are i.i.d., so no
// materialized shuffle is needed — and numeric features stay raw, like
// GenerateCriteo's output before NormalizeInPlace.
func StreamCriteo(cfg CriteoConfig, sc StreamConfig, sink ShardSink) (StreamStats, error) {
	sc = sc.withDefaults()
	g, rng, zipf := newCriteoGen(cfg)
	perShard := sc.BatchSize * sc.BatchesPerShard
	numShards := (cfg.Samples + perShard - 1) / perShard
	scan := func(i int) *criteoDraws {
		return scanCriteo(cfg, rng, zipf, min(perShard, cfg.Samples-i*perShard))
	}
	encode := func(_ int, d *criteoDraws) []byte {
		b := shard.NewBuilder()
		var idx []uint32
		var val []float64
		for k := range d.u {
			var label float64
			idx, val, label = g.row(d, k, idx[:0], val[:0])
			b.AddFeaturePairs(label, idx, val)
			if (k+1)%sc.BatchSize == 0 {
				b.EndBatch()
			}
		}
		return b.Finish()
	}
	var bytes int64
	err := runPipeline(numShards, sc.Parallelism, scan, encode, func(i int, blob []byte) error {
		if err := sink.WriteShard(i, blob); err != nil {
			return err
		}
		bytes += int64(len(blob))
		return nil
	})
	if err != nil {
		return StreamStats{}, fmt.Errorf("dataset: stream criteo: %w", err)
	}
	return StreamStats{
		Samples: cfg.Samples,
		Batches: (cfg.Samples + sc.BatchSize - 1) / sc.BatchSize,
		Shards:  numShards,
		Bytes:   bytes,
	}, nil
}
