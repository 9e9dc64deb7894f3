// Package consistency implements the synchronization models of MLLess
// (§3.1, §4.1): Bulk Synchronous Parallel (BSP) and the paper's
// contribution, Insignificance-bounded Synchronous Parallel (ISP) — a
// variant of Approximate Synchronous Parallel specialized to accelerate
// the broadcast of local updates between workers in one data center.
//
// Under ISP each worker accumulates its per-parameter updates locally and
// broadcasts a parameter's accumulated value only once it becomes
// significant:
//
//	|Σ_{t'=t_p..t} u_{i,t'} / x_{i,t}| > v_t,   v_t = v/√t
//
// (§4.1, "Significance function"). The threshold decays over time, so
// late-training updates — relatively smaller — still propagate. With
// v = 0 every update is significant and ISP reduces exactly to BSP
// (Corollary, Appendix A), a property the tests pin down.
package consistency

import (
	"math"

	"mlless/internal/sparse"
)

// Mode selects the synchronization model of a training job.
type Mode int

const (
	// BSP is Bulk Synchronous Parallel: all updates propagate every step.
	BSP Mode = iota + 1
	// ISP filters non-significant updates (the paper's optimization).
	ISP
	// Async drops the global barrier entirely (the fully asynchronous
	// protocol of the journal version of MLLess, arXiv 2206.05786):
	// workers free-run on their own clocks, pulling announced peer
	// updates under a bounded staleness cap. It composes with the ISP
	// significance filter (set Significance > 0).
	Async
)

// String renders the mode name.
func (m Mode) String() string {
	switch m {
	case BSP:
		return "bsp"
	case ISP:
		return "isp"
	case Async:
		return "async"
	default:
		return "unknown"
	}
}

// Variant selects a significance-filter design for ablation studies.
// The paper's design (Accumulate) keeps withheld updates and broadcasts
// their sum once significant; the ablations quantify why that matters.
type Variant int

const (
	// Accumulate is the paper's ISP filter: insignificant updates are
	// summed into a residual and eventually flushed (§4.1).
	Accumulate Variant = iota
	// Drop discards insignificant updates instead of accumulating them
	// (the naive alternative ISP improves upon; convergence degrades).
	Drop
	// NoDecay keeps the threshold constant at v instead of decaying it
	// as v/√t (late-training updates, relatively smaller, stop flowing).
	NoDecay
)

// String renders the variant name.
func (v Variant) String() string {
	switch v {
	case Accumulate:
		return "accumulate"
	case Drop:
		return "drop"
	case NoDecay:
		return "no-decay"
	default:
		return "unknown"
	}
}

// Filter is the per-worker ISP significance filter. It owns the
// accumulated residual δ of not-yet-broadcast updates. The zero value is
// unusable; construct with NewFilter. Filter is not safe for concurrent
// use: each worker owns one.
//
// The residual is state as wide as the model, so it is indexed by
// coordinate: res is a dense array sized to the parameter vector on the
// first Add under a non-zero threshold, and live lists the coordinates
// it holds. Invariant, between Adds: live names exactly the coordinates
// with res[i] != 0, each once, in no particular order. It holds because
// an update's keys are unique (a coordinate joins live only when its
// residual leaves zero) and because Add's single pass over live drops
// whatever it zeroes. There is no sparse fallback for very wide models:
// every model already keeps its parameters as a dense vector of the same
// width, so the residual at most doubles a worker's model memory.
type Filter struct {
	v       float64
	variant Variant

	res  []float64
	live []uint32

	// out is the scratch Add returns, reused across calls.
	out *sparse.Vector

	flushed int64
}

// NewFilter returns the paper's filter with base significance threshold
// v ≥ 0. v = 0 makes every update significant (BSP behaviour).
func NewFilter(v float64) *Filter {
	return NewFilterVariant(v, Accumulate)
}

// NewFilterVariant returns a filter of the given design (for the
// ablation benches).
func NewFilterVariant(v float64, variant Variant) *Filter {
	if v < 0 {
		v = 0
	}
	return &Filter{v: v, variant: variant, out: sparse.New()}
}

// Threshold returns v_t = v/√t for 1-based step t (constant v for the
// NoDecay variant).
func (f *Filter) Threshold(t int) float64 {
	if f.variant == NoDecay {
		return f.v
	}
	if t < 1 {
		t = 1
	}
	return f.v / math.Sqrt(float64(t))
}

// Add accumulates this step's update u into the residual and returns the
// significant portion to broadcast, removing it from the residual.
// params is the worker's current (noisy) parameter vector x̃_t against
// which relative significance is measured. A parameter whose current
// value is zero — or whose coordinate lies outside params — is treated
// as maximally significant whenever its residual is non-zero (the
// relative change is unbounded). Updates are expected to stay within
// params: a coordinate beyond it is flushed in the same Add, but first
// widens the dense residual to reach it, memory proportional to its index.
//
// The returned vector is scratch owned by the filter and valid only
// until the next Add; callers that retain it must Clone.
func (f *Filter) Add(t int, u *sparse.Vector, params sparse.Dense) *sparse.Vector {
	out := f.out
	vt := f.Threshold(t)
	if vt == 0 && len(f.live) == 0 {
		// BSP: everything is significant and nothing is withheld, so the
		// update passes through and no residual is ever allocated.
		out.CopyFrom(u)
		f.flushed += int64(out.Len())
		return out
	}

	if len(f.res) < len(params) {
		f.widen(len(params))
	}
	u.ForEach(func(i uint32, val float64) {
		if int(i) >= len(f.res) {
			f.widen(int(i) + 1)
		}
		if f.res[i] == 0 {
			f.live = append(f.live, i)
		}
		f.res[i] += val
	})

	// One compacting pass: flush what is significant, keep the rest.
	out.Clear()
	keep := f.live[:0]
	for _, i := range f.live {
		delta := f.res[i]
		if delta == 0 {
			continue // cancelled exactly: no longer withheld
		}
		x := 0.0
		if int(i) < len(params) {
			x = params[i]
		}
		switch {
		case x == 0 || math.Abs(delta/x) > vt:
			out.Set(i, delta)
			f.res[i] = 0
		case f.variant == Drop:
			// Naive filtering: the insignificant part is lost forever.
			f.res[i] = 0
		default:
			keep = append(keep, i)
		}
	}
	f.live = keep
	f.flushed += int64(out.Len())
	return out
}

// widen grows the residual to cover n coordinates.
func (f *Filter) widen(n int) {
	f.res = append(f.res, make([]float64, n-len(f.res))...)
}

// ResidualView is a read-only view of a filter's residual.
type ResidualView struct{ f *Filter }

// Len reports the number of withheld coordinates.
func (r ResidualView) Len() int { return len(r.f.live) }

// Get returns the withheld update at coordinate i (0 when none).
func (r ResidualView) Get(i uint32) float64 {
	if int(i) < len(r.f.res) {
		return r.f.res[i]
	}
	return 0
}

// ForEach calls fn for every withheld coordinate, in unspecified order.
func (r ResidualView) ForEach(fn func(i uint32, delta float64)) {
	for _, i := range r.f.live {
		fn(i, r.f.res[i])
	}
}

// Residual exposes the accumulated non-significant updates δ. The
// scale-in eviction protocol needs it: a leaving worker's local replica
// already contains these updates, which is why its model is stored and
// averaged into the survivors (§4.2, eviction policy).
func (f *Filter) Residual() ResidualView { return ResidualView{f} }

// PendingL1 returns the taxicab mass of the residual, a measure of how
// much state the filter is currently withholding (summed in ascending
// coordinate order, so it is deterministic).
func (f *Filter) PendingL1() float64 {
	sum := 0.0
	for _, delta := range f.res {
		sum += math.Abs(delta)
	}
	return sum
}

// FlushedEntries returns the cumulative count of broadcast coordinates.
func (f *Filter) FlushedEntries() int64 { return f.flushed }

// Reset clears the residual and statistics, keeping the storage.
func (f *Filter) Reset() {
	for _, i := range f.live {
		f.res[i] = 0
	}
	f.live = f.live[:0]
	f.flushed = 0
}

// BaseThreshold returns the configured v.
func (f *Filter) BaseThreshold() float64 { return f.v }
