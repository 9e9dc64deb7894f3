package sparse

import (
	"bytes"
	"math/bits"
	"testing"

	"mlless/internal/xrand"
)

// --- correctness of the zero-allocation APIs ---

func TestEncodeToMatchesLayout(t *testing.T) {
	r := xrand.New(11)
	for _, nnz := range []int{0, 1, 7, 100, 1000} {
		v := randomVector(r, 100000, nnz)
		var want []byte
		v.Entries(func(idx []uint32, val []float64) { want = rawEncode(idx, val) })
		if got := v.EncodeTo(nil); !bytes.Equal(got, want) {
			t.Fatalf("nnz=%d: EncodeTo(nil) differs from the documented layout", nnz)
		}
		// Appending onto a prefix leaves the prefix intact.
		prefix := []byte("hdr")
		got := v.EncodeTo(prefix)
		if string(got[:3]) != "hdr" || !bytes.Equal(got[3:], want) {
			t.Fatalf("nnz=%d: EncodeTo clobbered the prefix", nnz)
		}
		// Reusing a buffer with capacity reproduces the same bytes.
		buf := make([]byte, 0, len(want))
		if got := v.EncodeTo(buf); !bytes.Equal(got, want) {
			t.Fatalf("nnz=%d: EncodeTo(reused) differs", nnz)
		}
	}
}

func TestCopyFromMatchesClone(t *testing.T) {
	r := xrand.New(13)
	src := randomVector(r, 100000, 300)
	dst := New()
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatal("CopyFrom mismatch")
	}
	dst.Set(42, 99)
	if src.Get(42) == 99 && src.Get(42) != 0 {
		t.Fatal("CopyFrom aliased the source")
	}
	// Copying a smaller vector over a larger one replaces it fully.
	small := randomVector(r, 100, 5)
	dst.CopyFrom(small)
	if !dst.Equal(small) {
		t.Fatal("CopyFrom did not replace previous contents")
	}
	// Copying an empty (never-initialized) vector clears.
	dst.CopyFrom(New())
	if dst.Len() != 0 {
		t.Fatal("CopyFrom of empty vector left entries")
	}
}

func TestEqualShortCircuitsOnFirstMismatch(t *testing.T) {
	// Two large vectors that differ everywhere: Equal must return false
	// (and, per the fix, stops probing after the first mismatch rather
	// than scanning all n entries — pinned here behaviorally, and by
	// the Equal benchmark's ns/op if it ever regresses).
	a, b := New(), New()
	for i := uint32(0); i < 10000; i++ {
		a.Set(i, 1)
		b.Set(i, 2)
	}
	if a.Equal(b) {
		t.Fatal("everywhere-different vectors compare equal")
	}
	// One mismatch buried among identical entries is still found.
	c := a.Clone()
	c.Set(9999, 7)
	if a.Equal(c) || !a.Equal(a.Clone()) {
		t.Fatal("single mismatch missed, or identical vectors unequal")
	}
}

// --- allocation regression guards ---
// These pin the steady-state hot ops at zero allocations so future PRs
// cannot silently reintroduce churn.

func TestAddNoGrowDoesNotAllocate(t *testing.T) {
	r := xrand.New(21)
	v := New() // AllocsPerRun's warm-up run grows it
	idx := make([]uint32, 1000)
	for i := range idx {
		idx[i] = uint32(r.Intn(100000))
	}
	if n := testing.AllocsPerRun(10, func() {
		for _, i := range idx {
			v.Add(i, 1)
		}
		for _, i := range idx {
			v.Add(i, -1) // cancel so the run never outgrows its capacity
		}
	}); n != 0 {
		t.Fatalf("Vector.Add (no grow) allocated %v per run", n)
	}
}

func TestEncodeToDoesNotAllocate(t *testing.T) {
	r := xrand.New(22)
	v := randomVector(r, 100000, 1000)
	buf := v.EncodeTo(nil) // warm buffer at final capacity
	if n := testing.AllocsPerRun(10, func() {
		buf = v.EncodeTo(buf[:0])
	}); n != 0 {
		t.Fatalf("EncodeTo allocated %v per run", n)
	}
}

// TestEncodeToGrowsGeometrically pins the growth rule of a reused
// payload buffer: encoding 1…4096 ascending entries into one buffer
// changes its capacity O(log n) times, not once per growing encode.
// append's growth (×2 while small, tending to ×1.25 past 256 bytes,
// rounded up to size classes) regrows it 20 times here, where exact
// sizing regrows on every encode.
func TestEncodeToGrowsGeometrically(t *testing.T) {
	const entries = 4096
	v := New()
	var buf []byte
	changes := 0
	for i := uint32(0); i < entries; i++ {
		v.Set(i, 1)
		old := cap(buf)
		buf = v.EncodeTo(buf[:0])
		if cap(buf) != old {
			changes++
		}
	}
	if limit := 2 * bits.Len(entries-1); changes > limit { // 2⌈log₂ 4096⌉ = 24
		t.Fatalf("encoding 1…%d entries into one buffer regrew it %d times, want ≤ %d", entries, changes, limit)
	}
}

func TestAddEncodedDoesNotAllocate(t *testing.T) {
	r := xrand.New(23)
	v := randomVector(r, 100000, 1000)
	buf := v.EncodeTo(nil)
	d := NewDense(100000)
	if n := testing.AllocsPerRun(10, func() {
		if _, err := AddEncoded(d, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AddEncoded allocated %v per run", n)
	}
}

func TestCopyFromDoesNotAllocateWhenSized(t *testing.T) {
	r := xrand.New(26)
	src := randomVector(r, 100000, 1000)
	dst := New()
	dst.CopyFrom(src) // size the destination
	if n := testing.AllocsPerRun(10, func() {
		dst.CopyFrom(src)
	}); n != 0 {
		t.Fatalf("CopyFrom (sized) allocated %v per run", n)
	}
}

// --- hot-op micro-benchmarks (run with -benchmem) ---

func BenchmarkEncodeTo(b *testing.B) {
	r := xrand.New(33)
	v := randomVector(r, 100000, 1000)
	buf := v.EncodeTo(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = v.EncodeTo(buf[:0])
	}
}

func BenchmarkAddEncoded(b *testing.B) {
	r := xrand.New(35)
	v := randomVector(r, 100000, 1000)
	buf := v.EncodeTo(nil)
	d := NewDense(100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AddEncoded(d, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseEqual(b *testing.B) {
	r := xrand.New(36)
	v := randomVector(r, 100000, 1000)
	w := v.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !v.Equal(w) {
			b.Fatal("unequal")
		}
	}
}
