package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(9)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 2, 10, 257} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestZipfRange(t *testing.T) {
	r := New(19)
	z := NewZipf(r, 100, 1.1)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(23)
	z := NewZipf(r, 1000, 1.2)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must be drawn far more often than rank 500.
	if counts[0] <= counts[500]*5 {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[500]=%d", counts[0], counts[500])
	}
}

func TestZipfPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(_, 0, s) did not panic")
		}
	}()
	NewZipf(New(1), 0, 1)
}

// zipfFullSearch is Next's definition: the first rank whose cdf is
// ≥ u, or the last rank if there is none.
func zipfFullSearch(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// unxorshift inverts x ^= x >> s.
func unxorshift(y uint64, s uint) uint64 {
	x := y
	for i := uint(0); i < 64; i += s {
		x = y ^ (x >> s)
	}
	return x
}

// inverse returns c⁻¹ mod 2⁶⁴ for odd c (Newton's iteration).
func inverse(c uint64) uint64 {
	x := c
	for i := 0; i < 6; i++ {
		x *= 2 - c*x
	}
	return x
}

// seedDrawing returns the seed whose first Float64 is m/2⁵³, by
// inverting splitmix64's output mix.
func seedDrawing(m uint64) uint64 {
	z := unxorshift(m<<11, 31)
	z *= inverse(0x94d049bb133111eb)
	z = unxorshift(z, 27)
	z *= inverse(0xbf58476d1ce4e5b9)
	z = unxorshift(z, 30)
	return z - 0x9e3779b97f4a7c15
}

// FuzzZipfNext checks the guide-table search against the full binary
// search over the same uniforms: every rank equal and the generator
// advanced by the same draws, for n in [1, 20 000] and s in [0.5, 2].
func FuzzZipfNext(f *testing.F) {
	const slice = uint64(1) << (53 - zipfGuideBits)
	drawing := func(m uint64) uint64 {
		seed := seedDrawing(m)
		if got := New(seed).Uint64() >> 11; got != m {
			f.Fatalf("seedDrawing(%#x) draws %#x", m, got)
		}
		return seed
	}
	f.Add(uint64(1), 1, 1.1)
	f.Add(uint64(7), 10_000, 1.1)
	for _, k := range []uint64{1, 2, 17, 2048, zipfGuide - 1} {
		f.Add(drawing(k*slice-1), 10_000, 1.1) // just below k/zipfGuide
		f.Add(drawing(k*slice), 10_000, 1.1)   // at k/zipfGuide
		f.Add(drawing(k*slice), 37, 2.0)
	}
	// n = 12 at s = 1.1 normalises to a last cdf entry below 1: 1−2⁻⁵³,
	// which the largest uniform equals.
	if z := NewZipf(New(0), 12, 1.1); z.cdf[11] != 1-0x1p-53 {
		f.Fatalf("last cdf entry %v, want 1−2⁻⁵³", z.cdf[11])
	}
	f.Add(drawing(1<<53-1), 12, 1.1)
	f.Fuzz(func(t *testing.T, seed uint64, n int, s float64) {
		if n < 0 {
			n = -(n + 1)
		}
		n = 1 + n%20_000
		if math.IsNaN(s) || math.IsInf(s, 0) {
			s = 1
		}
		s = 0.5 + math.Mod(math.Abs(s), 1.5)
		z, ref := NewZipf(New(seed), n, s), New(seed)
		for i := 0; i < 32; i++ {
			u := ref.Float64()
			if got, want := z.Next(), zipfFullSearch(z.cdf, u); got != want {
				t.Fatalf("n=%d s=%v draw %d: u=%v rank %d, want %d", n, s, i, u, got, want)
			}
		}
		if z.rng.Uint64() != ref.Uint64() {
			t.Fatal("Next consumed a different number of draws")
		}
	})
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(29)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	freq := float64(hits) / n
	if math.Abs(freq-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", freq)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.NormFloat64()
	}
	_ = sink
}
