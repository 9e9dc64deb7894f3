package shard

import (
	"encoding/binary"
	"math"
	"slices"

	"mlless/internal/sparse"
)

// Builder assembles a shard blob batch by batch. Samples append to the
// current batch; EndBatch seals it as one contiguous block; Finish
// emits header + directory + blocks. A builder is reusable via Reset.
//
// A shard holds one sample kind: the first Add fixes it, mixing kinds
// panics (programmer error, like sparse's mismatched-dimension panics).
type Builder struct {
	haveKind bool
	rating   bool

	// Current batch, columnar.
	labels []float64
	users  []uint32
	items  []uint32
	offs   []uint32 // CSR row offsets into pairs
	pairs  []byte

	// Sealed blocks, back to back, with their cumulative end offsets.
	blocks []byte
	ends   []uint64
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Reset clears the builder for a fresh shard, keeping capacity.
func (b *Builder) Reset() {
	b.haveKind = false
	b.rating = false
	b.labels = b.labels[:0]
	b.users = b.users[:0]
	b.items = b.items[:0]
	b.offs = b.offs[:0]
	b.pairs = b.pairs[:0]
	b.blocks = b.blocks[:0]
	b.ends = b.ends[:0]
}

func (b *Builder) setKind(rating bool) {
	if !b.haveKind {
		b.haveKind = true
		b.rating = rating
		return
	}
	if b.rating != rating {
		panic("shard: mixed sample kinds in one shard")
	}
}

// AddFeature appends a feature sample (label + sparse features) to the
// current batch. The vector's coordinates are emitted in ascending
// index order, so the block bytes are deterministic whatever the
// vector's state.
func (b *Builder) AddFeature(label float64, v *sparse.Vector) {
	v.Entries(func(idx []uint32, val []float64) { b.AddFeaturePairs(label, idx, val) })
}

// AddFeaturePairs appends a feature sample from pre-sorted columnar
// pairs (ascending unique indices) — the generator's path, which never
// materializes sparse vectors.
func (b *Builder) AddFeaturePairs(label float64, idx []uint32, vals []float64) {
	b.setKind(false)
	if len(b.offs) == 0 {
		b.offs = append(b.offs, 0)
	}
	b.labels = append(b.labels, label)
	b.offs = append(b.offs, b.offs[len(b.offs)-1]+uint32(len(idx)))
	n := len(b.pairs)
	b.pairs = slices.Grow(b.pairs, len(idx)*pairSize)[:n+len(idx)*pairSize]
	for k, i := range idx {
		p := b.pairs[n+k*pairSize:]
		binary.LittleEndian.PutUint32(p, i)
		binary.LittleEndian.PutUint64(p[4:], math.Float64bits(vals[k]))
	}
}

// AddRating appends a rating sample to the current batch.
func (b *Builder) AddRating(user, item int, rating float64) {
	b.setKind(true)
	b.users = append(b.users, uint32(user))
	b.items = append(b.items, uint32(item))
	b.labels = append(b.labels, rating)
}

// EndBatch seals the current batch as one block. Empty batches seal to
// valid empty blocks.
func (b *Builder) EndBatch() {
	if b.rating {
		b.endRatingBlock()
	} else {
		b.endFeatureBlock()
	}
	b.ends = append(b.ends, uint64(len(b.blocks)))
	b.labels = b.labels[:0]
	b.users = b.users[:0]
	b.items = b.items[:0]
	b.offs = b.offs[:0]
	b.pairs = b.pairs[:0]
}

func (b *Builder) endFeatureBlock() {
	count := len(b.labels)
	nnz := len(b.pairs) / pairSize
	b.blocks = appendUint32(b.blocks, uint32(count))
	b.blocks = appendUint32(b.blocks, uint32(nnz))
	for _, l := range b.labels {
		b.blocks = appendUint64(b.blocks, math.Float64bits(l))
	}
	if count == 0 {
		b.blocks = appendUint32(b.blocks, 0)
	} else {
		for _, o := range b.offs {
			b.blocks = appendUint32(b.blocks, o)
		}
	}
	b.blocks = append(b.blocks, b.pairs...)
}

func (b *Builder) endRatingBlock() {
	b.blocks = appendUint32(b.blocks, uint32(len(b.labels)))
	for _, u := range b.users {
		b.blocks = appendUint32(b.blocks, u)
	}
	for _, it := range b.items {
		b.blocks = appendUint32(b.blocks, it)
	}
	for _, r := range b.labels {
		b.blocks = appendUint64(b.blocks, math.Float64bits(r))
	}
}

// Finish assembles the shard blob. A batch still open (samples added
// since the last EndBatch) is sealed first. The builder stays usable:
// Reset starts the next shard.
func (b *Builder) Finish() []byte {
	if len(b.labels) > 0 {
		b.EndBatch()
	}
	nb := len(b.ends)
	dirEnd := headerSize + (nb+1)*dirEntry
	out := make([]byte, 0, dirEnd+len(b.blocks))
	out = appendUint32(out, shardMagic)
	out = appendUint32(out, shardVersion)
	if b.rating {
		out = appendUint32(out, kindRating)
	} else {
		out = appendUint32(out, kindFeature)
	}
	out = appendUint32(out, uint32(nb))
	out = appendUint64(out, uint64(dirEnd))
	for _, end := range b.ends {
		out = appendUint64(out, uint64(dirEnd)+end)
	}
	return append(out, b.blocks...)
}

func appendUint32(buf []byte, v uint32) []byte {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], v)
	return append(buf, w[:]...)
}

func appendUint64(buf []byte, v uint64) []byte {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	return append(buf, w[:]...)
}
