package dataset

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"mlless/internal/objstore"
	"mlless/internal/shard"
	"mlless/internal/vclock"
	"mlless/internal/xrand"
)

// StreamConfig tunes the streaming shard writers.
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
	// RatingMean is the global mean rating (MovieLens streams only).
	RatingMean float64
}

// ShardSink consumes finished shard blobs. WriteShard is called
// sequentially in shard-index order; the blob must not be retained
// (the pipeline reuses nothing today, but the contract keeps sinks
// copy-or-write).
type ShardSink interface {
	WriteShard(i int, blob []byte) error
}

// ObjstoreSink stages shard blobs into a bucket, charging clk — the
// streaming counterpart of StageShards' uploads. Callers finish the
// bucket with WriteShardManifest.
type ObjstoreSink struct {
	Store  *objstore.Store
	Clk    *vclock.Clock
	Bucket string
}

// WriteShard implements ShardSink.
func (s ObjstoreSink) WriteShard(i int, blob []byte) error {
	s.Store.Put(s.Clk, s.Bucket, ShardKey(i), blob)
	return nil
}

// WriteShardManifest stages the manifest describing a bucket's shard
// geometry; workers open the bucket through OpenShardCache.
func WriteShardManifest(store *objstore.Store, clk *vclock.Clock, bucket string, numBatches, batchSize, batchesPerShard int) {
	store.Put(clk, bucket, ShardManifestKey, EncodeShardManifest(numBatches, batchSize, batchesPerShard))
}

// FileSink writes shard blobs as shard-%08d.shard files under Dir —
// the on-disk tier mlless-datagen emits and shard.OpenFile mmaps back.
type FileSink struct{ Dir string }

// WriteShard implements ShardSink.
func (s FileSink) WriteShard(i int, blob []byte) error {
	return os.WriteFile(filepath.Join(s.Dir, fmt.Sprintf("shard-%08d.shard", i)), blob, 0o644)
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
// into columnar shards without ever materializing the dataset: a
// sequential scanner makes exactly the random draws GenerateCriteo
// makes per sample (so the same seed yields the same samples), and a
// worker pool turns each shard-sized chunk of draws into a shard blob
// (hashing trick, ground-truth score, label, columnar encode — all
// draw-free). Shards carry samples in generation order — the draws are
// i.i.d., so no materialized shuffle is needed — and numeric features
// stay raw, like GenerateCriteo's output before NormalizeInPlace.
func StreamCriteo(cfg CriteoConfig, sc StreamConfig, sink ShardSink) (StreamStats, error) {
	sc = sc.withDefaults()
	rng := xrand.New(cfg.Seed)
	dim := cfg.HashDim + cfg.NumericFeatures
	truth := make([]float64, dim+1)
	for i := range truth {
		truth[i] = rng.NormFloat64() * cfg.Separation
	}
	zipf := xrand.NewZipf(rng, cfg.Cardinality, 1.1)

	perShard := sc.BatchSize * sc.BatchesPerShard
	numShards := (cfg.Samples + perShard - 1) / perShard
	remaining := cfg.Samples
	scan := func(int) interface{} {
		n := perShard
		if n > remaining {
			n = remaining
		}
		remaining -= n
		c := &criteoChunk{
			n:       n,
			normals: make([]float64, n*cfg.NumericFeatures),
			cats:    make([]int, n*cfg.CategoricalFeatures),
			u:       make([]float64, n),
		}
		// Per sample, in GenerateCriteo's exact draw order: the numeric
		// normals, the categorical Zipf ranks, the label uniform.
		for k := 0; k < n; k++ {
			for f := 0; f < cfg.NumericFeatures; f++ {
				c.normals[k*cfg.NumericFeatures+f] = rng.NormFloat64()
			}
			for f := 0; f < cfg.CategoricalFeatures; f++ {
				c.cats[k*cfg.CategoricalFeatures+f] = zipf.Next()
			}
			c.u[k] = rng.Float64()
		}
		return c
	}
	encode := func(data interface{}) []byte {
		return encodeCriteoChunk(cfg, truth, data.(*criteoChunk), sc.BatchSize)
	}
	bytes, err := runShardPipeline(numShards, sc.Parallelism, scan, encode, sink)
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

type criteoChunk struct {
	n       int
	normals []float64
	cats    []int
	u       []float64
}

// encodeCriteoChunk turns one chunk of raw draws into a shard blob.
// Everything here is a pure function of the draws, which is what makes
// the output independent of worker scheduling.
func encodeCriteoChunk(cfg CriteoConfig, truth []float64, c *criteoChunk, batchSize int) []byte {
	numeric, cat := cfg.NumericFeatures, cfg.CategoricalFeatures
	dim := cfg.HashDim + numeric
	b := shard.NewBuilder()
	idxBuf := make([]uint32, numeric+cat)
	valBuf := make([]float64, numeric+cat)
	hashed := make([]uint32, cat)
	for k := 0; k < c.n; k++ {
		for f := 0; f < numeric; f++ {
			idxBuf[f] = uint32(f)
			valBuf[f] = math.Exp(c.normals[k*numeric+f])
		}
		for f := 0; f < cat; f++ {
			hashed[f] = uint32(numeric) + hashCat(f, c.cats[k*cat+f], cfg.HashDim)
		}
		// Sort the hashed coordinates ascending (insertion sort: ≤26
		// elements) and drop duplicates — colliding fields all set the
		// same coordinate to 1, exactly like Set on a sparse vector.
		for i := 1; i < cat; i++ {
			h := hashed[i]
			j := i - 1
			for j >= 0 && hashed[j] > h {
				hashed[j+1] = hashed[j]
				j--
			}
			hashed[j+1] = h
		}
		m := numeric
		for i := 0; i < cat; i++ {
			if i > 0 && hashed[i] == hashed[i-1] {
				continue
			}
			idxBuf[m] = hashed[i]
			valBuf[m] = 1
			m++
		}
		// Ground-truth score, accumulated in ascending coordinate order —
		// the numeric block then the sorted hashed block — matching
		// GenerateCriteo's ForEachSorted walk bit for bit.
		score := truth[dim]
		for f := 0; f < numeric; f++ {
			score += truth[f] * math.Min(valBuf[f]/10, 1)
		}
		for i := numeric; i < m; i++ {
			score += truth[idxBuf[i]]
		}
		label := 0.0
		if c.u[k] < 1/(1+math.Exp(-score)) {
			label = 1
		}
		b.AddFeaturePairs(label, idxBuf[:m], valBuf[:m])
		if (k+1)%batchSize == 0 {
			b.EndBatch()
		}
	}
	if c.n%batchSize != 0 {
		b.EndBatch()
	}
	return b.Finish()
}

// StreamMovieLens generates cfg.Ratings MovieLens-like samples into
// columnar shards. The factor matrices are O(users+items) — the only
// state held — and the scanner computes full (user, item, rating)
// triples (the rating depends on the draws, and the running rating sum
// must accumulate in generation order to reproduce GenerateMovieLens's
// RatingMean bit for bit); workers only serialize.
func StreamMovieLens(cfg MovieLensConfig, sc StreamConfig, sink ShardSink) (StreamStats, error) {
	sc = sc.withDefaults()
	rng := xrand.New(cfg.Seed)
	if cfg.SignalStd <= 0 {
		cfg.SignalStd = 0.8
	}
	scale := math.Sqrt(cfg.SignalStd / math.Sqrt(float64(cfg.Rank)))
	userF := make([][]float64, cfg.Users)
	for u := range userF {
		f := make([]float64, cfg.Rank)
		for k := range f {
			f[k] = rng.NormFloat64() * scale
		}
		userF[u] = f
	}
	itemF := make([][]float64, cfg.Items)
	for i := range itemF {
		f := make([]float64, cfg.Rank)
		for k := range f {
			f[k] = rng.NormFloat64() * scale
		}
		itemF[i] = f
	}
	const mean = 3.5
	itemPop := xrand.NewZipf(rng, cfg.Items, 1.05)

	perShard := sc.BatchSize * sc.BatchesPerShard
	numShards := (cfg.Ratings + perShard - 1) / perShard
	remaining := cfg.Ratings
	sum := 0.0
	scan := func(int) interface{} {
		n := perShard
		if n > remaining {
			n = remaining
		}
		remaining -= n
		c := &mlChunk{
			n:     n,
			users: make([]int, n),
			items: make([]int, n),
			r:     make([]float64, n),
		}
		for k := 0; k < n; k++ {
			u := rng.Intn(cfg.Users)
			i := itemPop.Next()
			dot := 0.0
			for d := 0; d < cfg.Rank; d++ {
				dot += userF[u][d] * itemF[i][d]
			}
			r := mean + dot + rng.NormFloat64()*cfg.NoiseStd
			if r < 1 {
				r = 1
			} else if r > 5 {
				r = 5
			}
			c.users[k], c.items[k], c.r[k] = u, i, r
			sum += r
		}
		return c
	}
	encode := func(data interface{}) []byte {
		c := data.(*mlChunk)
		b := shard.NewBuilder()
		for k := 0; k < c.n; k++ {
			b.AddRating(c.users[k], c.items[k], c.r[k])
			if (k+1)%sc.BatchSize == 0 {
				b.EndBatch()
			}
		}
		if c.n%sc.BatchSize != 0 {
			b.EndBatch()
		}
		return b.Finish()
	}
	bytes, err := runShardPipeline(numShards, sc.Parallelism, scan, encode, sink)
	if err != nil {
		return StreamStats{}, fmt.Errorf("dataset: stream movielens: %w", err)
	}
	return StreamStats{
		Samples:    cfg.Ratings,
		Batches:    (cfg.Ratings + sc.BatchSize - 1) / sc.BatchSize,
		Shards:     numShards,
		Bytes:      bytes,
		RatingMean: sum / float64(cfg.Ratings),
	}, nil
}

type mlChunk struct {
	n     int
	users []int
	items []int
	r     []float64
}

// runShardPipeline is the scan → encode → write harness shared by the
// streaming generators: a strictly sequential scanner (it owns the
// RNG), par encode workers, and an in-order collector feeding the
// sink. In-flight work is bounded by the worker count, so memory stays
// O(par × chunk) regardless of dataset size.
func runShardPipeline(numShards, par int, scan func(idx int) interface{}, encode func(data interface{}) []byte, sink ShardSink) (int64, error) {
	type chunkJob struct {
		idx  int
		data interface{}
	}
	type chunkResult struct {
		idx  int
		blob []byte
	}
	jobs := make(chan chunkJob)
	results := make(chan chunkResult, par)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				results <- chunkResult{j.idx, encode(j.data)}
			}
		}()
	}

	var bytes int64
	var sinkErr error
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		pending := make(map[int][]byte)
		next := 0
		for r := range results {
			pending[r.idx] = r.blob
			for {
				blob, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				if sinkErr == nil {
					if err := sink.WriteShard(next, blob); err != nil {
						sinkErr = err
						close(stop)
					} else {
						bytes += int64(len(blob))
					}
				}
				next++
			}
		}
	}()

	for idx := 0; idx < numShards; idx++ {
		j := chunkJob{idx, scan(idx)}
		select {
		case jobs <- j:
		case <-stop:
			idx = numShards // abort: the sink already failed
		}
	}
	close(jobs)
	wg.Wait()
	close(results)
	<-done
	return bytes, sinkErr
}
