package dataset

import (
	"encoding/binary"
	"fmt"
	"sync"

	"mlless/internal/objstore"
	"mlless/internal/shard"
	"mlless/internal/vclock"
	"mlless/internal/xrand"
)

// DefaultBatchesPerShard is how many mini-batches a staged shard packs
// when callers have no reason to choose: large enough to amortize the
// per-object overhead, small enough that a shard stays a convenient
// transfer unit.
const DefaultBatchesPerShard = 8

// ShardKey names staged shard object i. Zero-padded so List order
// equals numeric order.
func ShardKey(i int) string { return fmt.Sprintf("shard/%08d", i) }

// ShardManifestKey names the staging manifest describing a bucket's
// shard geometry.
const ShardManifestKey = "shard/manifest"

const (
	manifestMagic   = 0x314d534d // "MSM1"
	manifestVersion = 1
	manifestSize    = 20
)

// EncodeShardManifest serializes the shard geometry of a staged bucket.
func EncodeShardManifest(numBatches, batchSize, batchesPerShard int) []byte {
	buf := make([]byte, manifestSize)
	binary.LittleEndian.PutUint32(buf, manifestMagic)
	binary.LittleEndian.PutUint32(buf[4:], manifestVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(numBatches))
	binary.LittleEndian.PutUint32(buf[12:], uint32(batchSize))
	binary.LittleEndian.PutUint32(buf[16:], uint32(batchesPerShard))
	return buf
}

// DecodeShardManifest parses a staging manifest.
func DecodeShardManifest(buf []byte) (numBatches, batchSize, batchesPerShard int, err error) {
	if len(buf) != manifestSize {
		return 0, 0, 0, fmt.Errorf("dataset: shard manifest is %d bytes, want %d", len(buf), manifestSize)
	}
	if m := binary.LittleEndian.Uint32(buf); m != manifestMagic {
		return 0, 0, 0, fmt.Errorf("dataset: shard manifest bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != manifestVersion {
		return 0, 0, 0, fmt.Errorf("dataset: shard manifest unsupported version %d", v)
	}
	numBatches = int(binary.LittleEndian.Uint32(buf[8:]))
	batchSize = int(binary.LittleEndian.Uint32(buf[12:]))
	batchesPerShard = int(binary.LittleEndian.Uint32(buf[16:]))
	if batchesPerShard <= 0 {
		return 0, 0, 0, fmt.Errorf("dataset: shard manifest batchesPerShard %d", batchesPerShard)
	}
	return numBatches, batchSize, batchesPerShard, nil
}

// StageShards shuffles the dataset deterministically (Perm(n, seed),
// independent of batchSize), cuts it into mini-batches of batchSize
// (the last may be short) and stages them as columnar shard blobs plus
// a manifest, charging the uploads to clk: batches are packed
// batchesPerShard to a shard (0 selects DefaultBatchesPerShard), each
// batch one contiguous block a worker fetches with a single ranged
// read. This is the role PyWren-IBM plays in §3.2: putting the dataset
// into COS in "the appropriate format". It returns the number of staged
// batches.
func StageShards(ds *Dataset, store *objstore.Store, clk *vclock.Clock, bucket string, batchSize, batchesPerShard int, seed uint64) int {
	if batchesPerShard <= 0 {
		batchesPerShard = DefaultBatchesPerShard
	}
	rng := xrand.New(seed)
	order := rng.Perm(ds.Len())
	shuffled := make([]Sample, ds.Len())
	for i, j := range order {
		shuffled[i] = ds.Samples[j]
	}
	tmp := Dataset{Samples: shuffled}
	batches := tmp.Split(batchSize)

	b := shard.NewBuilder()
	shardIdx := 0
	flush := func() {
		store.Put(clk, bucket, ShardKey(shardIdx), b.Finish())
		shardIdx++
		b.Reset()
	}
	for i, batch := range batches {
		for _, s := range batch {
			if s.IsRating() {
				b.AddRating(s.User, s.Item, s.Label)
			} else {
				b.AddFeature(s.Label, s.Features)
			}
		}
		b.EndBatch()
		if (i+1)%batchesPerShard == 0 {
			flush()
		}
	}
	if len(batches)%batchesPerShard != 0 {
		flush()
	}
	store.Put(clk, bucket, ShardManifestKey, EncodeShardManifest(len(batches), batchSize, batchesPerShard))
	return len(batches)
}

// ShardCache reads staged mini-batches back: every Fetch performs (and
// charges) an object-store transfer — one ranged read of the batch's
// block inside its shard, workers re-download batches each iteration
// exactly as in the paper — while the CPU-side parse, simulator
// overhead rather than modeled time, happens once per shard via an
// uncharged peek. Views alias the staged blobs, which nothing writes
// again once stored (objstore's ownership rule) and which are never
// expired, so they stay valid across later writes; callers must treat
// them as read-only.
//
// ShardCache is safe for concurrent use.
type ShardCache struct {
	store           *objstore.Store
	bucket          string
	numBatches      int
	batchesPerShard int

	mu     sync.Mutex
	shards map[int]*shard.Shard
}

// OpenShardCache reads the staging manifest of bucket (one charged
// object read) and returns a cache over its shards.
func OpenShardCache(store *objstore.Store, clk *vclock.Clock, bucket string) (*ShardCache, error) {
	buf, err := store.Get(clk, bucket, ShardManifestKey)
	if err != nil {
		return nil, fmt.Errorf("dataset: open shard cache: %w", err)
	}
	numBatches, _, batchesPerShard, err := DecodeShardManifest(buf)
	if err != nil {
		return nil, fmt.Errorf("dataset: open shard cache: %w", err)
	}
	return &ShardCache{
		store:           store,
		bucket:          bucket,
		numBatches:      numBatches,
		batchesPerShard: batchesPerShard,
		shards:          make(map[int]*shard.Shard),
	}, nil
}

// NumBatches returns the staged batch count from the manifest.
func (c *ShardCache) NumBatches() int { return c.numBatches }

// Fetch charges the ranged read of batch i's block to clk and returns
// its zero-copy view.
func (c *ShardCache) Fetch(clk *vclock.Clock, i int) (shard.BatchView, error) {
	if i < 0 || i >= c.numBatches {
		return shard.BatchView{}, fmt.Errorf("dataset: fetch batch %d of %d", i, c.numBatches)
	}
	si, bi := i/c.batchesPerShard, i%c.batchesPerShard
	sh, err := c.shard(si)
	if err != nil {
		return shard.BatchView{}, fmt.Errorf("dataset: fetch batch %d: %w", i, err)
	}
	if bi >= sh.NumBatches() {
		return shard.BatchView{}, fmt.Errorf("dataset: fetch batch %d: shard %d holds %d batches", i, si, sh.NumBatches())
	}
	off, n := sh.BatchExtent(bi)
	if _, err := c.store.GetRangeView(clk, c.bucket, ShardKey(si), off, n); err != nil {
		return shard.BatchView{}, fmt.Errorf("dataset: fetch batch %d: %w", i, err)
	}
	return sh.Batch(bi), nil
}

// shard returns the parsed form of shard si, parsing it on first use
// from an uncharged peek at the stored bytes.
func (c *ShardCache) shard(si int) (*shard.Shard, error) {
	c.mu.Lock()
	sh, ok := c.shards[si]
	c.mu.Unlock()
	if ok {
		return sh, nil
	}
	blob, ok := c.store.PeekView(c.bucket, ShardKey(si))
	if !ok {
		return nil, fmt.Errorf("shard %d: %w", si, objstore.ErrNotFound)
	}
	sh, err := shard.Parse(blob)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", si, err)
	}
	c.mu.Lock()
	c.shards[si] = sh
	c.mu.Unlock()
	return sh, nil
}

// Plan deterministically assigns staged batch indices to (worker, step)
// pairs. Each worker walks its own arithmetic progression through the
// shuffled batches, wrapping around — an epoch-free infinite stream, as
// serverless workers fetch "a mini-batch from IBM COS" each iteration
// (§3.2).
type Plan struct {
	numBatches int
	numWorkers int
}

// NewPlan builds a batch plan over numBatches staged batches for
// numWorkers workers.
func NewPlan(numBatches, numWorkers int) Plan {
	return Plan{numBatches: numBatches, numWorkers: numWorkers}
}

// BatchFor returns the staged batch index worker w consumes at step t.
// Workers at the same step always consume distinct batches (as long as
// there are at least numWorkers batches), which is what makes the global
// batch size P·B (§3.2, weak scaling).
func (p Plan) BatchFor(worker, step int) int {
	if p.numBatches == 0 {
		return 0
	}
	return (step*p.numWorkers + worker) % p.numBatches
}
