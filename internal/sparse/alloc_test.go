package sparse

import (
	"bytes"
	"runtime"
	"testing"

	"mlless/internal/xrand"
)

// --- correctness of the zero-allocation APIs ---

func TestEncodeToMatchesEncode(t *testing.T) {
	r := xrand.New(11)
	for _, nnz := range []int{0, 1, 7, 100, 1000} {
		v := randomVector(r, 100000, nnz)
		want := v.Encode()
		if got := v.EncodeTo(nil); !bytes.Equal(got, want) {
			t.Fatalf("nnz=%d: EncodeTo(nil) differs from Encode", nnz)
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

func TestDecodeIntoReusesVector(t *testing.T) {
	r := xrand.New(12)
	big := randomVector(r, 100000, 500)
	small := randomVector(r, 100000, 20)
	v := New()
	if err := DecodeInto(v, big.Encode()); err != nil {
		t.Fatal(err)
	}
	if !v.Equal(big) {
		t.Fatal("DecodeInto mismatch on first decode")
	}
	// Decoding a smaller vector into the same table must fully replace
	// the previous contents.
	if err := DecodeInto(v, small.Encode()); err != nil {
		t.Fatal(err)
	}
	if !v.Equal(small) {
		t.Fatal("DecodeInto left stale entries behind")
	}
	if err := DecodeInto(v, New().Encode()); err != nil {
		t.Fatal(err)
	}
	if v.Len() != 0 {
		t.Fatal("DecodeInto of empty vector left entries")
	}
}

func TestDecodeIntoErrors(t *testing.T) {
	v := New()
	if err := DecodeInto(v, []byte{1, 2}); err == nil {
		t.Fatal("short buffer accepted")
	}
	if err := DecodeInto(v, append(New().Encode(), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
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
// cannot silently reintroduce churn. The pair scratch is pooled, so the
// first use warms the pool; AllocsPerRun's own warm-up run covers that.

func TestAddNoGrowDoesNotAllocate(t *testing.T) {
	r := xrand.New(21)
	v := NewWithCapacity(2000)
	idx := make([]uint32, 1000)
	for i := range idx {
		idx[i] = uint32(r.Intn(100000))
	}
	if n := testing.AllocsPerRun(10, func() {
		for _, i := range idx {
			v.Add(i, 1)
		}
		for _, i := range idx {
			v.Add(i, -1) // cancel so the table never grows
		}
	}); n != 0 {
		t.Fatalf("Vector.Add (no grow) allocated %v per run", n)
	}
}

func TestEncodeToDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes the pair pool drop puts; zero-alloc holds only uninstrumented")
	}
	r := xrand.New(22)
	v := randomVector(r, 100000, 1000)
	buf := v.Encode() // warm buffer at final capacity
	if n := testing.AllocsPerRun(10, func() {
		buf = v.EncodeTo(buf[:0])
	}); n != 0 {
		t.Fatalf("EncodeTo allocated %v per run", n)
	}
}

func TestAddEncodedDoesNotAllocate(t *testing.T) {
	r := xrand.New(23)
	v := randomVector(r, 100000, 1000)
	buf := v.Encode()
	d := NewDense(100000)
	if n := testing.AllocsPerRun(10, func() {
		if _, err := AddEncoded(d, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AddEncoded allocated %v per run", n)
	}
}

func TestDecodeIntoDoesNotAllocate(t *testing.T) {
	r := xrand.New(24)
	v := randomVector(r, 100000, 1000)
	buf := v.Encode()
	dst := New()
	if err := DecodeInto(dst, buf); err != nil { // warm the table
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() {
		if err := DecodeInto(dst, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DecodeInto (warm table) allocated %v per run", n)
	}
}

func TestSortedReductionsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes the pair pool drop puts; zero-alloc holds only uninstrumented")
	}
	r := xrand.New(25)
	v := randomVector(r, 100000, 1000)
	d := NewDense(100000)
	v.Dot(d) // warm the pair pool
	if n := testing.AllocsPerRun(10, func() {
		_ = v.Dot(d)
		_ = v.NormL2()
		_ = v.NormL1()
		v.ForEachSorted(func(uint32, float64) {})
	}); n != 0 {
		t.Fatalf("sorted reductions allocated %v per run", n)
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

// TestVectorGrowthAllocatesLikeTheTable pins the one growth rule: the
// entry arrays are allocated in lock-step with the table, at ¾ of its
// size — 4 + ¾·12 = 13 bytes per slot — never by append's own policy,
// which would let the simulator's allocation volume drift with the
// runtime's.
func TestVectorGrowthAllocatesLikeTheTable(t *testing.T) {
	const entries = 40000
	slots := 0 // Σ table sizes a vector passes through on its way to 40 k entries
	for size := minCapacity; ; size *= 2 {
		slots += size
		if size/4*3 >= entries {
			break
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v := New()
	for i := uint32(0); i < entries; i++ {
		v.Set(i*7, 1)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(13*slots) * 105 / 100; got > limit { // 5 %: size-class rounding
		t.Fatalf("growing to %d entries allocated %d bytes, want ≤ %d (13 B × %d slots)", v.Len(), got, limit, slots)
	}
}

// --- hot-op micro-benchmarks (run with -benchmem) ---

func BenchmarkSparseDot(b *testing.B) {
	r := xrand.New(31)
	v := randomVector(r, 100000, 1000)
	d := NewDense(100000)
	for i := range d {
		d[i] = r.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Dot(d)
	}
}

func BenchmarkSparseForEachSorted(b *testing.B) {
	r := xrand.New(32)
	v := randomVector(r, 100000, 1000)
	sink := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.ForEachSorted(func(_ uint32, val float64) { sink += val })
	}
	_ = sink
}

func BenchmarkEncodeTo(b *testing.B) {
	r := xrand.New(33)
	v := randomVector(r, 100000, 1000)
	buf := v.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = v.EncodeTo(buf[:0])
	}
}

func BenchmarkDecodeInto(b *testing.B) {
	r := xrand.New(34)
	v := randomVector(r, 100000, 1000)
	buf := v.Encode()
	dst := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(dst, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAddEncoded(b *testing.B) {
	r := xrand.New(35)
	v := randomVector(r, 100000, 1000)
	buf := v.Encode()
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
