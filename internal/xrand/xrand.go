// Package xrand provides a small, fast, deterministic pseudo-random
// number generator and the sampling distributions used across the MLLess
// simulator. Every stochastic component of the repository (dataset
// generation, mini-batch sampling, model initialization) draws from this
// package so that experiments are exactly reproducible from a seed.
//
// The generator is splitmix64 (Steele, Lea, Flood: "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014). It is not suitable for
// cryptography; it is ideal for simulation: tiny state, excellent
// statistical quality for this use, and trivially seedable.
package xrand

import "math"

// RNG is a deterministic splitmix64 pseudo-random number generator.
// The zero value is a valid generator seeded with 0; prefer New to make
// seeds explicit.
type RNG struct {
	state uint64

	// cached second Gaussian from the Box-Muller transform.
	gaussReady bool
	gauss      float64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 random mantissa bits.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate via Box-Muller.
func (r *RNG) NormFloat64() float64 {
	if r.gaussReady {
		r.gaussReady = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.gaussReady = true
	return u * f
}

// Perm returns a random permutation of [0, n), Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^s. It is used to give synthetic datasets the heavy-tailed
// item popularity of real recommendation data (MovieLens).
//
// Next inverts the cdf exactly, through a guide table that narrows the
// binary search to the ranks one 1/zipfGuide slice of [0, 1) can reach.
type Zipf struct {
	rng   *RNG
	cdf   []float64
	guide []int
}

// zipfGuide is the guide table's width: a power of two, so the slice a
// uniform falls in is its top zipfGuideBits mantissa bits.
const (
	zipfGuideBits = 12
	zipfGuide     = 1 << zipfGuideBits
)

// NewZipf builds a sampler over n ranks with exponent s > 0.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	// guide[k] is the first rank whose cdf is ≥ k/zipfGuide, capped at
	// n−1 (rounding can leave the last cdf entry just below 1).
	guide := make([]int, zipfGuide+1)
	r := 0
	for k := range guide {
		for r < n-1 && cdf[r] < float64(k)/zipfGuide {
			r++
		}
		guide[k] = r
	}
	return &Zipf{rng: rng, cdf: cdf, guide: guide}
}

// Next returns the next Zipf-distributed rank in [0, n): the first
// rank whose cdf is ≥ u for u = Float64(), or n−1 if there is none. The
// uniform u = m/2⁵³ lies in [k, k+1)/zipfGuide for k = m's top bits,
// so the answer lies between guide[k] and guide[k+1]; the search there
// is the full search's.
func (z *Zipf) Next() int {
	m := z.rng.Uint64() >> 11
	u := float64(m) / (1 << 53)
	k := m >> (53 - zipfGuideBits)
	lo, hi := z.guide[k], z.guide[k+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
