// Package shard defines the columnar shard format of the data tier
// (DESIGN.md §13). A shard packs a run of mini-batches into one blob;
// within a batch the samples are stored as per-column contiguous
// arrays (labels, users, items) with CSR-style row offsets over a
// single sorted (index, value) pair array that reuses the 12-byte
// entry layout of package sparse's wire encoding.
//
// The format exists so the fetch→compute path can run zero-copy: a
// parsed Shard hands out BatchView values that read labels, ratings
// and feature pairs straight out of the blob's bytes — no []Sample
// materialization, no per-fetch decoding, no per-step allocations.
// Views are plain slices into the blob; whoever owns the blob (an
// object-store snapshot) owns the views' lifetime.
//
// Layout (all little-endian):
//
//	header:
//	  uint32 magic   "MLS1"
//	  uint32 version (1)
//	  uint32 kind    (0 = feature batches, 1 = rating batches)
//	  uint32 numBatches
//	directory:
//	  (numBatches+1) × uint64 byte offsets of the batch blocks from the
//	  start of the shard; the final entry is the shard length
//	batch blocks, contiguous, one per batch:
//	  feature block:
//	    uint32 count, uint32 nnz
//	    count × float64 labels
//	    (count+1) × uint32 row offsets into the pair array (CSR)
//	    nnz × (uint32 index, float64 value), ascending within each row
//	  rating block:
//	    uint32 count
//	    count × uint32 users
//	    count × uint32 items
//	    count × float64 ratings
package shard

import (
	"encoding/binary"
	"fmt"
	"math"

	"mlless/internal/sparse"
)

const (
	shardMagic   = 0x31534c4d // "MLS1"
	shardVersion = 1

	kindFeature = 0
	kindRating  = 1

	headerSize = 16
	dirEntry   = 8
	pairSize   = 12 // uint32 index + float64 value, sparse wire entry
)

// Shard is a parsed shard blob: validated once, then every batch is
// served as a zero-copy BatchView with no further checks.
type Shard struct {
	rating bool
	views  []BatchView
	offs   []int // numBatches+1 block boundaries within the blob
}

// NumBatches returns the number of batch blocks in the shard.
func (s *Shard) NumBatches() int { return len(s.views) }

// Batch returns the zero-copy view of batch i.
func (s *Shard) Batch(i int) BatchView { return s.views[i] }

// BatchExtent returns the byte offset and length of batch i's block
// within the shard blob — the range a per-step fetch transfers.
func (s *Shard) BatchExtent(i int) (off, n int) {
	return s.offs[i], s.offs[i+1] - s.offs[i]
}

// Parse validates a shard blob and returns its parsed form. Every
// batch block is fully validated here (section sizes, monotone CSR
// offsets, ascending pair indices), so BatchView accessors never
// re-check. Corrupt or truncated blobs return errors, never panic.
func Parse(blob []byte) (*Shard, error) {
	if len(blob) < headerSize {
		return nil, fmt.Errorf("shard: short header (%d bytes)", len(blob))
	}
	if m := binary.LittleEndian.Uint32(blob); m != shardMagic {
		return nil, fmt.Errorf("shard: bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(blob[4:]); v != shardVersion {
		return nil, fmt.Errorf("shard: unsupported version %d", v)
	}
	kind := binary.LittleEndian.Uint32(blob[8:])
	if kind != kindFeature && kind != kindRating {
		return nil, fmt.Errorf("shard: unknown kind %d", kind)
	}
	nb := int64(binary.LittleEndian.Uint32(blob[12:]))
	dirEnd := int64(headerSize) + (nb+1)*dirEntry
	if dirEnd > int64(len(blob)) {
		return nil, fmt.Errorf("shard: directory for %d batches exceeds %d-byte blob", nb, len(blob))
	}
	offs := make([]int, nb+1)
	prev := uint64(dirEnd)
	for k := int64(0); k <= nb; k++ {
		o := binary.LittleEndian.Uint64(blob[headerSize+k*dirEntry:])
		if o < prev || o > uint64(len(blob)) {
			return nil, fmt.Errorf("shard: directory entry %d out of order (%d)", k, o)
		}
		if k == 0 && o != uint64(dirEnd) {
			return nil, fmt.Errorf("shard: first block at %d, want %d", o, dirEnd)
		}
		offs[k] = int(o)
		prev = o
	}
	if offs[nb] != len(blob) {
		return nil, fmt.Errorf("shard: %d trailing bytes", len(blob)-offs[nb])
	}
	s := &Shard{rating: kind == kindRating, views: make([]BatchView, nb), offs: offs}
	for k := 0; k < int(nb); k++ {
		v, err := ParseBatch(blob[offs[k]:offs[k+1]], s.rating)
		if err != nil {
			return nil, fmt.Errorf("shard: batch %d: %w", k, err)
		}
		s.views[k] = v
	}
	return s, nil
}

// BatchView is a zero-copy view of one mini-batch inside a shard
// blob. It is a value type (a handful of slice headers): pass it
// around freely, it allocates nothing. The view's bytes belong to the
// underlying blob — they are immutable for the blob's lifetime.
type BatchView struct {
	rating bool
	count  int
	labels []byte // feature labels, or ratings for rating batches
	users  []byte // rating batches only
	items  []byte // rating batches only
	offs   []byte // feature batches: (count+1) CSR row offsets
	pairs  []byte // feature batches: nnz 12-byte sorted pairs
}

// ParseBatch validates one batch block of the given kind and returns
// its view. Shard.Batch is the usual path; ParseBatch serves callers
// holding a single ranged read of a block.
func ParseBatch(block []byte, rating bool) (BatchView, error) {
	if rating {
		return parseRatingBlock(block)
	}
	return parseFeatureBlock(block)
}

func parseFeatureBlock(block []byte) (BatchView, error) {
	if len(block) < 8 {
		return BatchView{}, fmt.Errorf("short feature block (%d bytes)", len(block))
	}
	count := int64(binary.LittleEndian.Uint32(block))
	nnz := int64(binary.LittleEndian.Uint32(block[4:]))
	need := 8 + count*8 + (count+1)*4 + nnz*pairSize
	if need != int64(len(block)) {
		return BatchView{}, fmt.Errorf("feature block length %d, want %d for %d samples / %d pairs",
			len(block), need, count, nnz)
	}
	v := BatchView{count: int(count)}
	off := int64(8)
	v.labels = block[off : off+count*8]
	off += count * 8
	v.offs = block[off : off+(count+1)*4]
	off += (count + 1) * 4
	v.pairs = block[off:]
	// CSR offsets must start at 0, end at nnz and never decrease; pair
	// indices must ascend strictly within each row (the builder emits
	// sorted unique coordinates, and the zero-copy dot products depend
	// on that order for bit-determinism).
	prev := uint32(0)
	if first := binary.LittleEndian.Uint32(v.offs); first != 0 {
		return BatchView{}, fmt.Errorf("feature block row offsets start at %d", first)
	}
	for k := int64(1); k <= count; k++ {
		o := binary.LittleEndian.Uint32(v.offs[k*4:])
		if o < prev || int64(o) > nnz {
			return BatchView{}, fmt.Errorf("feature block row offset %d out of order (%d)", k, o)
		}
		for j := prev; j < o; j++ {
			idx := binary.LittleEndian.Uint32(v.pairs[j*pairSize:])
			if j > prev {
				if last := binary.LittleEndian.Uint32(v.pairs[(j-1)*pairSize:]); idx <= last {
					return BatchView{}, fmt.Errorf("feature block sample %d: pair indices not ascending", k-1)
				}
			}
		}
		prev = o
	}
	if int64(prev) != nnz {
		return BatchView{}, fmt.Errorf("feature block rows cover %d pairs, header says %d", prev, nnz)
	}
	return v, nil
}

func parseRatingBlock(block []byte) (BatchView, error) {
	if len(block) < 4 {
		return BatchView{}, fmt.Errorf("short rating block (%d bytes)", len(block))
	}
	count := int64(binary.LittleEndian.Uint32(block))
	need := 4 + count*4 + count*4 + count*8
	if need != int64(len(block)) {
		return BatchView{}, fmt.Errorf("rating block length %d, want %d for %d samples", len(block), need, count)
	}
	v := BatchView{rating: true, count: int(count)}
	off := int64(4)
	v.users = block[off : off+count*4]
	off += count * 4
	v.items = block[off : off+count*4]
	off += count * 4
	v.labels = block[off:]
	return v, nil
}

// Len returns the number of samples in the batch.
func (b BatchView) Len() int { return b.count }

// IsRating reports whether the batch holds rating samples.
func (b BatchView) IsRating() bool { return b.rating }

// Label returns sample k's label (the class for feature batches, the
// rating for rating batches).
func (b BatchView) Label(k int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b.labels[k*8:]))
}

// Rating is Label under its rating-batch name.
func (b BatchView) Rating(k int) float64 { return b.Label(k) }

// User returns sample k's user index (rating batches).
func (b BatchView) User(k int) int {
	return int(binary.LittleEndian.Uint32(b.users[k*4:]))
}

// Item returns sample k's item index (rating batches).
func (b BatchView) Item(k int) int {
	return int(binary.LittleEndian.Uint32(b.items[k*4:]))
}

// row returns the pair range [lo, hi) of feature sample k.
func (b BatchView) row(k int) (lo, hi int) {
	return int(binary.LittleEndian.Uint32(b.offs[k*4:])),
		int(binary.LittleEndian.Uint32(b.offs[(k+1)*4:]))
}

// Dot returns the inner product of feature sample k with a dense
// vector, accumulated in ascending index order, the order of the
// decoded sample's entries. Indices outside d are ignored.
func (b BatchView) Dot(k int, d sparse.Dense) float64 {
	lo, hi := b.row(k)
	sum := 0.0
	for j := lo; j < hi; j++ {
		p := b.pairs[j*pairSize:]
		if i := binary.LittleEndian.Uint32(p); int(i) < len(d) {
			sum += math.Float64frombits(binary.LittleEndian.Uint64(p[4:])) * d[i]
		}
	}
	return sum
}

// FoldRow adds scale·val into acc for every (index, value) pair of
// feature sample k, in ascending index order: the sums of calling
// acc.Add(i, scale*val) from ForEachPair, without a call per pair.
func (b BatchView) FoldRow(k int, scale float64, acc *sparse.FoldScratch) {
	lo, hi := b.row(k)
	for j := lo; j < hi; j++ {
		p := b.pairs[j*pairSize:]
		acc.Add(binary.LittleEndian.Uint32(p), scale*math.Float64frombits(binary.LittleEndian.Uint64(p[4:])))
	}
}

// ForEachPair calls fn for every (index, value) pair of feature
// sample k, in ascending index order.
func (b BatchView) ForEachPair(k int, fn func(i uint32, val float64)) {
	lo, hi := b.row(k)
	for j := lo; j < hi; j++ {
		p := b.pairs[j*pairSize:]
		fn(binary.LittleEndian.Uint32(p), math.Float64frombits(binary.LittleEndian.Uint64(p[4:])))
	}
}
