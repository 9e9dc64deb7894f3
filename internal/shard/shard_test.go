package shard

import (
	"encoding/binary"
	"math"
	"testing"

	"mlless/internal/sparse"
	"mlless/internal/xrand"
)

// buildFeatureShard assembles a deterministic feature shard plus the
// sparse vectors and labels it was built from.
func buildFeatureShard(batches, batchSize int) ([]byte, [][]*sparse.Vector, [][]float64) {
	rng := xrand.New(7)
	b := NewBuilder()
	vecs := make([][]*sparse.Vector, batches)
	labels := make([][]float64, batches)
	for i := 0; i < batches; i++ {
		for k := 0; k < batchSize; k++ {
			v := sparse.New()
			for n := rng.Intn(20); n >= 0; n-- {
				v.Set(uint32(rng.Intn(500)), rng.NormFloat64())
			}
			label := float64(rng.Intn(2))
			b.AddFeature(label, v)
			vecs[i] = append(vecs[i], v)
			labels[i] = append(labels[i], label)
		}
		b.EndBatch()
	}
	return b.Finish(), vecs, labels
}

// rowVector materializes feature sample k of b as a sparse vector.
func rowVector(b BatchView, k int) *sparse.Vector {
	v := sparse.New()
	b.ForEachPair(k, v.Set)
	return v
}

func TestFeatureShardRoundTrip(t *testing.T) {
	blob, vecs, labels := buildFeatureShard(4, 9)
	s, err := Parse(blob)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.IsRating() || s.NumBatches() != 4 {
		t.Fatalf("parsed shard: rating=%v batches=%d", s.IsRating(), s.NumBatches())
	}
	dim := 500
	d := sparse.NewDense(dim)
	rng := xrand.New(11)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	for i := 0; i < s.NumBatches(); i++ {
		bv := s.Batch(i)
		if bv.IsRating() || bv.Len() != 9 {
			t.Fatalf("batch %d: rating=%v len=%d", i, bv.IsRating(), bv.Len())
		}
		for k := 0; k < bv.Len(); k++ {
			if got := bv.Label(k); got != labels[i][k] {
				t.Fatalf("batch %d sample %d label %v, want %v", i, k, got, labels[i][k])
			}
			want := vecs[i][k]
			if bv.RowNNZ(k) != want.Len() {
				t.Fatalf("batch %d sample %d nnz %d, want %d", i, k, bv.RowNNZ(k), want.Len())
			}
			if !rowVector(bv, k).Equal(want) {
				t.Fatalf("batch %d sample %d features differ", i, k)
			}
			// Zero-copy dot must match the sparse kernel bit for bit:
			// both accumulate in ascending index order.
			if got, exp := bv.Dot(k, d), want.Dot(d); got != exp {
				t.Fatalf("batch %d sample %d dot %v, want %v", i, k, got, exp)
			}
		}
		// FoldRow must give the sums of one Add per pair from
		// ForEachPair, bit for bit, across samples sharing coordinates.
		var folded, added sparse.FoldScratch
		for k := 0; k < bv.Len(); k++ {
			scale := d[k]
			bv.FoldRow(k, scale, &folded)
			bv.ForEachPair(k, func(i uint32, val float64) { added.Add(i, scale*val) })
		}
		got, want := sparse.New(), sparse.New()
		folded.EmitTo(got, nil)
		added.EmitTo(want, nil)
		if string(got.EncodeTo(nil)) != string(want.EncodeTo(nil)) {
			t.Fatalf("batch %d: FoldRow sums %v, want %v", i, got, want)
		}
	}
}

func TestRatingShardRoundTrip(t *testing.T) {
	b := NewBuilder()
	type r struct {
		u, i int
		v    float64
	}
	want := [][]r{
		{{0, 3, 4.5}, {17, 2, 1.0}},
		{{5, 5, 3.25}},
		{}, // empty trailing batch
	}
	for _, batch := range want {
		for _, s := range batch {
			b.AddRating(s.u, s.i, s.v)
		}
		b.EndBatch()
	}
	s, err := Parse(b.Finish())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !s.IsRating() || s.NumBatches() != 3 {
		t.Fatalf("parsed shard: rating=%v batches=%d", s.IsRating(), s.NumBatches())
	}
	for i, batch := range want {
		bv := s.Batch(i)
		if !bv.IsRating() && len(batch) > 0 {
			t.Fatalf("batch %d not rating", i)
		}
		if bv.Len() != len(batch) {
			t.Fatalf("batch %d len %d, want %d", i, bv.Len(), len(batch))
		}
		for k, sm := range batch {
			if bv.User(k) != sm.u || bv.Item(k) != sm.i || bv.Rating(k) != sm.v {
				t.Fatalf("batch %d sample %d = (%d,%d,%v), want %+v",
					i, k, bv.User(k), bv.Item(k), bv.Rating(k), sm)
			}
		}
	}
}

func TestBatchExtentsTileTheBlob(t *testing.T) {
	blob, _, _ := buildFeatureShard(5, 4)
	s, err := Parse(blob)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	prev := headerSize + (s.NumBatches()+1)*dirEntry
	for i := 0; i < s.NumBatches(); i++ {
		off, n := s.BatchExtent(i)
		if off != prev {
			t.Fatalf("batch %d extent starts at %d, want %d", i, off, prev)
		}
		// A ranged read of the extent must parse back to the same view.
		bv, err := ParseBatch(blob[off:off+n], false)
		if err != nil {
			t.Fatalf("ParseBatch extent %d: %v", i, err)
		}
		if bv.Len() != s.Batch(i).Len() || bv.NNZ() != s.Batch(i).NNZ() {
			t.Fatalf("batch %d ranged reparse mismatch", i)
		}
		prev = off + n
	}
	if prev != len(blob) {
		t.Fatalf("extents end at %d, blob is %d bytes", prev, len(blob))
	}
}

func TestBuilderDeterministicAcrossVectorLayout(t *testing.T) {
	// Same logical vector, built in different insertion orders, must
	// serialize identically.
	a, b := sparse.New(), sparse.New()
	idx := []uint32{400, 3, 77, 12, 900}
	for _, i := range idx {
		a.Set(i, float64(i)*1.5)
	}
	for k := len(idx) - 1; k >= 0; k-- {
		b.Set(idx[k], float64(idx[k])*1.5)
	}
	ba, bb := NewBuilder(), NewBuilder()
	ba.AddFeature(1, a)
	bb.AddFeature(1, b)
	ba.EndBatch()
	bb.EndBatch()
	ga, gb := ba.Finish(), bb.Finish()
	if string(ga) != string(gb) {
		t.Fatal("shard bytes depend on vector hash layout")
	}
}

func TestBuilderMixedKindsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mixing kinds did not panic")
		}
	}()
	b := NewBuilder()
	b.AddFeature(0, sparse.New())
	b.AddRating(0, 0, 1)
}

func TestParseErrors(t *testing.T) {
	blob, _, _ := buildFeatureShard(2, 3)
	cases := map[string][]byte{
		"empty":     nil,
		"short":     blob[:8],
		"truncated": blob[:len(blob)-1],
		"trailing":  append(append([]byte(nil), blob...), 0),
	}
	badMagic := append([]byte(nil), blob...)
	badMagic[0] ^= 0xff
	cases["magic"] = badMagic
	badVersion := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(badVersion[4:], 9)
	cases["version"] = badVersion
	badKind := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(badKind[8:], 7)
	cases["kind"] = badKind
	hugeDir := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(hugeDir[12:], math.MaxUint32)
	cases["huge directory"] = hugeDir
	badOffset := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(badOffset[headerSize+dirEntry:], 1)
	cases["offset order"] = badOffset
	for name, buf := range cases {
		if _, err := Parse(buf); err == nil {
			t.Errorf("%s: Parse accepted corrupt blob", name)
		}
	}
}

func TestParseRejectsUnsortedPairs(t *testing.T) {
	b := NewBuilder()
	b.AddFeaturePairs(1, []uint32{3, 9}, []float64{1, 2})
	b.EndBatch()
	blob := b.Finish()
	// Swap the two pair indices in place: 9 before 3.
	pairOff := len(blob) - 2*pairSize
	binary.LittleEndian.PutUint32(blob[pairOff:], 9)
	binary.LittleEndian.PutUint32(blob[pairOff+pairSize:], 3)
	if _, err := Parse(blob); err == nil {
		t.Fatal("Parse accepted unsorted pair indices")
	}
}

// FuzzShardView feeds arbitrary bytes through Parse and, when a blob
// is accepted, walks every accessor: corrupt or truncated shards must
// error, never panic, and accepted shards must be fully readable.
func FuzzShardView(f *testing.F) {
	feat, _, _ := buildFeatureShard(2, 3)
	rb := NewBuilder()
	rb.AddRating(1, 2, 3.5)
	rb.EndBatch()
	f.Add([]byte{})
	f.Add(feat)
	f.Add(feat[:len(feat)-1])
	f.Add(rb.Finish())
	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := Parse(blob)
		if err != nil {
			return
		}
		sink := 0.0
		d := sparse.NewDense(64)
		for i := 0; i < s.NumBatches(); i++ {
			off, n := s.BatchExtent(i)
			if off < 0 || n < 0 || off+n > len(blob) {
				t.Fatalf("batch %d extent (%d,%d) outside %d-byte blob", i, off, n, len(blob))
			}
			bv := s.Batch(i)
			for k := 0; k < bv.Len(); k++ {
				sink += bv.Label(k)
				if bv.IsRating() {
					sink += float64(bv.User(k) + bv.Item(k))
				} else {
					sink += bv.Dot(k, d)
					bv.ForEachPair(k, func(_ uint32, v float64) { sink += v })
				}
			}
		}
		_ = sink
	})
}
