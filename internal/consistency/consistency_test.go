package consistency

import (
	"math"
	"testing"
	"testing/quick"

	"mlless/internal/sparse"
	"mlless/internal/xrand"
)

func vec(entries map[uint32]float64) *sparse.Vector {
	v := sparse.New()
	for i, val := range entries {
		v.Set(i, val)
	}
	return v
}

// withheld returns the filter's residual at coordinate i (0 when none).
func withheld(f *Filter, i uint32) float64 {
	if int(i) < len(f.res) {
		return f.res[i]
	}
	return 0
}

func TestModeString(t *testing.T) {
	if BSP.String() != "bsp" || ISP.String() != "isp" || Mode(0).String() != "unknown" {
		t.Fatal("Mode.String wrong")
	}
}

func TestZeroThresholdFlushesEverything(t *testing.T) {
	f := NewFilterVariant(0, Accumulate)
	params := sparse.Dense{100, 100, 100}
	u := vec(map[uint32]float64{0: 1e-9, 2: -1e-9})
	out := f.Add(1, u, params)
	if !out.Equal(u) {
		t.Fatalf("v=0 must flush everything: got %v", out)
	}
	if f.Residual().Len() != 0 {
		t.Fatal("v=0 left a residual")
	}
}

func TestISPReducesToBSPCorollary(t *testing.T) {
	// Appendix A corollary: with v = 0, ISP ≡ BSP. Simulate two replicas
	// receiving identical update streams through filters with v = 0 and
	// assert the flushed streams are identical to the raw ones at every
	// step.
	r := xrand.New(1)
	f := NewFilterVariant(0, Accumulate)
	params := sparse.NewDense(50)
	for t0 := 1; t0 <= 100; t0++ {
		u := sparse.New()
		for k := 0; k < 5; k++ {
			u.Set(uint32(r.Intn(50)), r.NormFloat64())
		}
		out := f.Add(t0, u, params)
		if !out.Equal(u) {
			t.Fatalf("step %d: v=0 filter altered the update", t0)
		}
		params.AddSparse(u)
	}
}

func TestSmallUpdatesAccumulate(t *testing.T) {
	f := NewFilterVariant(0.5, Accumulate)
	params := sparse.Dense{1000}
	// Relative change 1e-3 << v_1 = 0.5: withheld.
	out := f.Add(1, vec(map[uint32]float64{0: 1}), params)
	if out.Len() != 0 {
		t.Fatalf("insignificant update flushed: %v", out)
	}
	if withheld(f, 0) != 1 {
		t.Fatal("residual not accumulated")
	}
	// Second identical update: still below threshold, residual = 2.
	out = f.Add(2, vec(map[uint32]float64{0: 1}), params)
	if out.Len() != 0 || withheld(f, 0) != 2 {
		t.Fatalf("residual = %v", withheld(f, 0))
	}
}

func TestAccumulatedUpdateEventuallySignificant(t *testing.T) {
	f := NewFilterVariant(0.5, Accumulate)
	params := sparse.Dense{10}
	var flushedAt int
	for step := 1; step <= 20; step++ {
		out := f.Add(step, vec(map[uint32]float64{0: 1}), params)
		if out.Len() > 0 {
			flushedAt = step
			// The complete history is encoded in one update (§4.1).
			if got := out.Get(0); got != float64(step) {
				t.Fatalf("flushed %v at step %d, want accumulated %d", got, step, step)
			}
			break
		}
	}
	if flushedAt == 0 {
		t.Fatal("accumulated update never became significant")
	}
	if f.Residual().Len() != 0 {
		t.Fatal("flush left residual behind")
	}
}

func TestThresholdDecaysAsInvSqrt(t *testing.T) {
	f := NewFilterVariant(0.7, Accumulate)
	if f.Threshold(1) != 0.7 {
		t.Fatalf("v_1 = %v", f.Threshold(1))
	}
	if math.Abs(f.Threshold(4)-0.35) > 1e-12 {
		t.Fatalf("v_4 = %v", f.Threshold(4))
	}
	if f.Threshold(0) != 0.7 {
		t.Fatal("non-positive step must clamp to 1")
	}
}

func TestDecayMakesLateUpdatesFlow(t *testing.T) {
	// An update of fixed relative size 0.1 is insignificant at step 1
	// (v=0.7) but significant at step 100 (v_100 = 0.07).
	f := NewFilterVariant(0.7, Accumulate)
	params := sparse.Dense{10}
	if out := f.Add(1, vec(map[uint32]float64{0: 1}), params); out.Len() != 0 {
		t.Fatal("relative 0.1 flushed at step 1")
	}
	f2 := NewFilterVariant(0.7, Accumulate)
	if out := f2.Add(100, vec(map[uint32]float64{0: 1}), params); out.Len() != 1 {
		t.Fatal("relative 0.1 withheld at step 100")
	}
}

func TestZeroParamTreatedAsSignificant(t *testing.T) {
	f := NewFilterVariant(0.7, Accumulate)
	params := sparse.Dense{0, 5}
	out := f.Add(1, vec(map[uint32]float64{0: 1e-12}), params)
	if out.Get(0) != 1e-12 {
		t.Fatal("update to zero-valued parameter must be significant")
	}
}

func TestOutOfRangeIndexTreatedAsZeroParam(t *testing.T) {
	f := NewFilterVariant(0.7, Accumulate)
	params := sparse.Dense{5}
	out := f.Add(1, vec(map[uint32]float64{10: 0.5}), params)
	if out.Get(10) != 0.5 {
		t.Fatal("out-of-range coordinate must flush")
	}
}

func TestMixedSignificance(t *testing.T) {
	f := NewFilterVariant(0.5, Accumulate)
	params := sparse.Dense{1, 1000}
	u := vec(map[uint32]float64{0: 1, 1: 1}) // relative 1.0 and 0.001
	out := f.Add(1, u, params)
	if out.Get(0) != 1 || out.Get(1) != 0 {
		t.Fatalf("mixed filter: %v", out)
	}
	if withheld(f, 1) != 1 || withheld(f, 0) != 0 {
		t.Fatalf("residual: %v", f.res)
	}
}

func TestBoundedDivergenceInvariant(t *testing.T) {
	// ISP's core guarantee (Theorem 1 machinery): what a peer misses is
	// exactly the residual, and each withheld coordinate is small
	// relative to its parameter. Simulate a stream and verify that at
	// every step, for every residual coordinate i,
	// |δ_i / x_i| ≤ v_t' for the threshold at its last Add.
	r := xrand.New(7)
	f := NewFilterVariant(0.7, Accumulate)
	params := sparse.NewDense(30)
	for i := range params {
		params[i] = 1 + r.Float64()
	}
	for step := 1; step <= 200; step++ {
		u := sparse.New()
		for k := 0; k < 4; k++ {
			u.Set(uint32(r.Intn(30)), r.NormFloat64()*0.01)
		}
		out := f.Add(step, u, params)
		// Apply both flushed and raw: local view always has everything.
		params.AddSparse(out)
		vt := f.Threshold(step)
		for i, delta := range f.res {
			if params[i] != 0 && math.Abs(delta/params[i]) > vt {
				t.Fatalf("step %d: residual coord %d violates bound: |%v/%v| > %v",
					step, i, delta, params[i], vt)
			}
		}
	}
}

func TestFlushedPlusResidualEqualsTotal(t *testing.T) {
	// Conservation: sum of everything flushed plus the residual equals
	// the sum of all updates ever added (no update is lost or duplicated).
	r := xrand.New(9)
	if err := quick.Check(func(seed uint64) bool {
		rr := xrand.New(seed ^ r.Uint64())
		f := NewFilterVariant(rr.Float64(), Accumulate)
		params := sparse.NewDense(20)
		for i := range params {
			params[i] = rr.NormFloat64() * 10
		}
		total := sparse.NewDense(20)
		flushed := sparse.NewDense(20)
		for step := 1; step <= 50; step++ {
			u := sparse.New()
			for k := 0; k < 3; k++ {
				u.Set(uint32(rr.Intn(20)), rr.NormFloat64())
			}
			total.AddSparse(u)
			flushed.AddSparse(f.Add(step, u, params))
		}
		diff := 0.0
		for i := range total {
			diff += math.Abs(flushed[i] + withheld(f, uint32(i)) - total[i])
		}
		return diff < 1e-9
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeThresholdClamped(t *testing.T) {
	f := NewFilterVariant(-1, Accumulate)
	if f.BaseThreshold() != 0 {
		t.Fatal("negative v not clamped")
	}
}

func TestCompressionGrowsWithThreshold(t *testing.T) {
	// Higher v must flush no more coordinates than lower v on the same
	// stream — the mechanism behind Fig 4's monotone speedup.
	run := func(v float64) int64 {
		r := xrand.New(33)
		f := NewFilterVariant(v, Accumulate)
		params := sparse.NewDense(100)
		for i := range params {
			params[i] = 1
		}
		for step := 1; step <= 100; step++ {
			u := sparse.New()
			for k := 0; k < 10; k++ {
				u.Set(uint32(r.Intn(100)), r.NormFloat64()*0.05)
			}
			out := f.Add(step, u, params)
			params.AddSparse(out)
		}
		return f.FlushedEntries()
	}
	loose, mid, strict := run(0), run(0.3), run(0.9)
	if !(strict <= mid && mid <= loose) {
		t.Fatalf("flushed counts not monotone: v=0:%d v=0.3:%d v=0.9:%d", loose, mid, strict)
	}
	if strict == loose {
		t.Fatal("thresholds had no effect at all")
	}
}

func TestVariantString(t *testing.T) {
	if Accumulate.String() != "accumulate" || Drop.String() != "drop" || NoDecay.String() != "no-decay" {
		t.Fatal("variant names wrong")
	}
	if Variant(99).String() != "unknown" {
		t.Fatal("unknown variant name wrong")
	}
}

func TestNoDecayVariantKeepsThresholdConstant(t *testing.T) {
	f := NewFilterVariant(0.7, NoDecay)
	if f.Threshold(1) != 0.7 || f.Threshold(10000) != 0.7 {
		t.Fatalf("NoDecay threshold changed: %v, %v", f.Threshold(1), f.Threshold(10000))
	}
}

func TestDropVariantDiscardsInsignificant(t *testing.T) {
	f := NewFilterVariant(0.5, Drop)
	params := sparse.Dense{1000}
	// Relative 1e-3: insignificant — and under Drop, gone for good.
	out := f.Add(1, vec(map[uint32]float64{0: 1}), params)
	if out.Len() != 0 {
		t.Fatal("insignificant update flushed")
	}
	if f.Residual().Len() != 0 {
		t.Fatal("Drop variant kept a residual")
	}
	// Repeating the same small update never accumulates to significance.
	for step := 2; step <= 50; step++ {
		if out := f.Add(step, vec(map[uint32]float64{0: 1}), params); out.Len() != 0 {
			t.Fatalf("Drop variant flushed at step %d", step)
		}
	}
}

func TestDropVariantPassesSignificant(t *testing.T) {
	f := NewFilterVariant(0.5, Drop)
	params := sparse.Dense{1, 0}
	out := f.Add(1, vec(map[uint32]float64{0: 2, 1: 3}), params)
	if out.Get(0) != 2 {
		t.Fatal("significant update dropped")
	}
	if out.Get(1) != 3 {
		t.Fatal("zero-param coordinate must be significant under Drop too")
	}
}

// refFilter is the algorithm Filter replaced, kept as the oracle: a map
// residual that every Add folds the update into and then walks whole.
type refFilter struct {
	variant   Variant
	residual  map[uint32]float64
	flushed   int64
	cancelled int
}

func (r *refFilter) add(vt float64, u *sparse.Vector, params sparse.Dense) *sparse.Vector {
	u.ForEach(func(i uint32, val float64) {
		if s := r.residual[i] + val; s == 0 {
			delete(r.residual, i)
			r.cancelled++
		} else {
			r.residual[i] = s
		}
	})
	out := sparse.New()
	for i, delta := range r.residual {
		x := 0.0
		if int(i) < len(params) {
			x = params[i]
		}
		significant := vt == 0 || x == 0 || math.Abs(delta/x) > vt
		if significant {
			out.Set(i, delta)
		}
		if significant || r.variant == Drop {
			delete(r.residual, i)
		}
	}
	r.flushed += int64(out.Len())
	return out
}

// checkLive asserts the invariant Add relies on: bit i of the live
// bitmap is set exactly when res[i] is non-zero, the bitmap covers res
// and no more, and nlive counts the set bits. Under a non-zero
// threshold it also asserts that the last output is an ascending run.
func checkLive(t *testing.T, f *Filter) {
	t.Helper()
	if want := (len(f.res) + 63) / 64; len(f.live) != want {
		t.Fatalf("live bitmap has %d words for %d coordinates, want %d", len(f.live), len(f.res), want)
	}
	set := 0
	for wi, w := range f.live {
		for b := 0; b < 64; b++ {
			i := wi*64 + b
			bit := w>>b&1 != 0
			if i >= len(f.res) {
				if bit {
					t.Fatalf("live bit %d set past the residual's %d coordinates", i, len(f.res))
				}
				continue
			}
			if bit != (f.res[i] != 0) {
				t.Fatalf("coordinate %d: live bit %v, residual %v", i, bit, f.res[i])
			}
			if bit {
				set++
			}
		}
	}
	if f.nlive != set {
		t.Fatalf("nlive = %d, bitmap holds %d", f.nlive, set)
	}
	if f.v > 0 {
		prev := int64(-1)
		f.out.ForEach(func(i uint32, _ float64) {
			if int64(i) <= prev {
				t.Fatalf("Add's output is not ascending: %d after %d", i, prev)
			}
			prev = int64(i)
		})
	}
}

func TestFilterMatchesMapReference(t *testing.T) {
	const dim, beyond = 60, 5 // updates also name 5 coordinates outside params
	for _, variant := range []Variant{Accumulate, Drop, NoDecay} {
		for vi, v := range []float64{0, 0.01, 0.7} {
			r := xrand.New(uint64(10*int(variant) + vi + 1))
			f := NewFilterVariant(v, variant)
			ref := &refFilter{variant: variant, residual: map[uint32]float64{}}
			params := sparse.NewDense(dim)
			for i := range params {
				// Mixed magnitudes, so that at every v some updates flush at
				// once and others wait long enough to cancel.
				params[i] = []float64{1, 50, 5000}[i%3] * r.NormFloat64()
			}
			params[3], params[17] = 0, 0 // zero parameters: significant whenever non-zero
			allZero := sparse.NewDense(dim)
			emptied, refilled := false, false
			for step := 1; step <= 400; step++ {
				u := sparse.New()
				for k := 0; k < 8; k++ {
					i := uint32(r.Intn(dim + beyond))
					if r.Intn(2) == 0 {
						u.Set(i, float64(r.Intn(5)-2)) // integers: residuals cancel exactly
					} else {
						u.Set(i, 0.05*r.NormFloat64())
					}
				}
				p, flushAll := params, step%100 == 0
				if flushAll {
					p = allZero // everything is significant: the residual empties, then refills
				}
				got, want := f.Add(step, u, p), ref.add(f.Threshold(step), u, p)
				if string(got.EncodeTo(nil)) != string(want.EncodeTo(nil)) {
					t.Fatalf("%v v=%v step %d: flushed %v, reference %v", variant, v, step, got, want)
				}
				if f.FlushedEntries() != ref.flushed {
					t.Fatalf("%v v=%v step %d: FlushedEntries %d, reference %d", variant, v, step, f.FlushedEntries(), ref.flushed)
				}
				res := f.Residual()
				if res.Len() != len(ref.residual) {
					t.Fatalf("%v v=%v step %d: residual holds %d, reference %d", variant, v, step, res.Len(), len(ref.residual))
				}
				for i := uint32(0); i < dim+beyond+1; i++ {
					got, want := withheld(f, i), ref.residual[i]
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%v v=%v step %d: residual[%d] = %v, reference %v", variant, v, step, i, got, want)
					}
				}
				checkLive(t, f)
				emptied = emptied || flushAll && res.Len() == 0
				refilled = refilled || emptied && res.Len() > 0
				params.AddSparse(got)
			}
			if withholds := v > 0 && variant != Drop; withholds && !(emptied && refilled && ref.cancelled > 0) {
				t.Fatalf("%v v=%v: sequence too tame: emptied %v, refilled %v, %d exact cancellations",
					variant, v, emptied, refilled, ref.cancelled)
			}
		}
	}
}

// filterWorkload builds a parameter vector and a cycle of updates shaped
// like the headline PMF run, scaled by dim: each update touches a fifth
// of the coordinates, all among the 62 % that are ever touched (cold
// factor rows are not), which at v = 0.7, t = 100 leaves about half the
// coordinates in the residual and flushes about 15 % of each update.
func filterWorkload(dim int) (sparse.Dense, []*sparse.Vector) {
	r := xrand.New(41)
	params := sparse.NewDense(dim)
	for i := range params {
		params[i] = r.NormFloat64()
	}
	updates := make([]*sparse.Vector, 16)
	for k := range updates {
		u := sparse.New()
		for u.Len() < dim/5 {
			u.Set(uint32(r.Intn(dim*62/100)), 0.01*r.NormFloat64())
		}
		updates[k] = u
	}
	return params, updates
}

// TestFilterAddSteadyStateDoesNotAllocate pins Add at zero allocations
// once the residual, the live bitmap and the output have reached their
// steady sizes.
func TestFilterAddSteadyStateDoesNotAllocate(t *testing.T) {
	params, updates := filterWorkload(5000)
	t.Run("run", func(t *testing.T) {
		for _, v := range []float64{0.7, 0} { // ISP, BSP
			f := NewFilterVariant(v, Accumulate)
			step := 0
			add := func() {
				f.Add(100, updates[step%len(updates)], params)
				step++
			}
			for step < 200 { // residual, live bitmap and out reach their steady sizes
				add()
			}
			if n := testing.AllocsPerRun(50, add); n != 0 {
				t.Fatalf("v=%v: steady-state Add allocated %v per run", v, n)
			}
		}
	})
}

func TestBSPFilterAllocatesNoResidual(t *testing.T) {
	params, updates := filterWorkload(5000)
	f := NewFilterVariant(0, Accumulate)
	for step, u := range updates {
		if out := f.Add(step+1, u, params); !out.Equal(u) {
			t.Fatalf("step %d: v=0 filter altered the update", step+1)
		}
	}
	if f.res != nil || f.live != nil {
		t.Fatalf("BSP filter allocated a residual: %d coordinates, %d live", len(f.res), cap(f.live))
	}
}

// BenchmarkFilterAdd measures Add at the shape of pmf-isp-autotune: 72 k
// parameters, 15 k-entry updates as the ascending runs the worker step
// produces, v = 0.7, residual at its steady state.
func BenchmarkFilterAdd(b *testing.B) {
	params, updates := filterWorkload(72000)
	f := NewFilterVariant(0.7, Accumulate)
	for step := 1; step <= 100; step++ {
		f.Add(step, updates[step%len(updates)], params)
	}
	b.ReportAllocs()
	b.ResetTimer()
	offered, before, residual := 0, f.FlushedEntries(), 0
	for i := 0; i < b.N; i++ {
		u := updates[i%len(updates)]
		f.Add(100, u, params)
		offered += u.Len()
		residual += f.Residual().Len()
	}
	b.ReportMetric(float64(f.FlushedEntries()-before)/float64(offered), "flush_ratio")
	b.ReportMetric(float64(residual)/float64(b.N), "residual_nnz")
}

// FuzzSignificant holds the filter's significance test to its
// definition, x == 0 || |δ/x| > v_t, for arbitrary float64 bit patterns
// of δ, x and v_t. The seeds cover ±0, subnormals, MaxFloat64, ±Inf,
// NaN, and quotients one ulp either side of v_t.
func FuzzSignificant(f *testing.F) {
	b := math.Float64bits
	vt := 0.7 / math.Sqrt(3)
	x := 1.375
	delta := vt * x // a representable δ whose quotient rounds to about v_t
	special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1, -1}
	for _, s := range special {
		f.Add(b(s), b(x), b(vt))
		f.Add(b(delta), b(s), b(vt))
		f.Add(b(delta), b(x), b(s))
		f.Add(b(s), b(s), b(s))
	}
	for _, d := range []float64{math.Nextafter(delta, 0), delta, math.Nextafter(delta, 2)} {
		for _, t := range []float64{math.Nextafter(vt, 0), vt, math.Nextafter(vt, 1)} {
			f.Add(b(d), b(x), b(t))
			f.Add(b(-d), b(x), b(t))
			f.Add(b(d), b(-x), b(t))
		}
	}
	f.Fuzz(func(t *testing.T, db, xb, vb uint64) {
		delta, x, vt := math.Float64frombits(db), math.Float64frombits(xb), math.Float64frombits(vb)
		if got, want := significant(delta, x, vt), x == 0 || math.Abs(delta/x) > vt; got != want {
			t.Fatalf("significant(%v, %v, %v) = %v, definition %v", delta, x, vt, got, want)
		}
	})
}
