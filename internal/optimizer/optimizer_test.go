package optimizer

import (
	"math"
	"slices"
	"testing"

	"mlless/internal/sparse"
	"mlless/internal/xrand"
)

func grad(entries map[uint32]float64) *sparse.Vector {
	v := sparse.New()
	for i, val := range entries {
		v.Set(i, val)
	}
	return v
}

func TestSchedules(t *testing.T) {
	c := Constant(0.5)
	if c.Rate(1) != 0.5 || c.Rate(100) != 0.5 {
		t.Fatal("Constant schedule not constant")
	}
	s := InvSqrt(1.0)
	if s.Rate(1) != 1 {
		t.Fatalf("InvSqrt.Rate(1) = %v", s.Rate(1))
	}
	if math.Abs(s.Rate(4)-0.5) > 1e-12 {
		t.Fatalf("InvSqrt.Rate(4) = %v", s.Rate(4))
	}
	if s.Rate(0) != 1 || s.Rate(-3) != 1 {
		t.Fatal("InvSqrt must clamp non-positive steps")
	}
}

func TestSGDStep(t *testing.T) {
	o := NewSGD(Constant(0.1))
	u := o.Step(1, grad(map[uint32]float64{2: 10, 5: -20}))
	if math.Abs(u.Get(2)+1) > 1e-12 || math.Abs(u.Get(5)-2) > 1e-12 {
		t.Fatalf("SGD update: %v", u)
	}
}

func TestSGDDoesNotMutateGradient(t *testing.T) {
	o := NewSGD(Constant(0.1))
	g := grad(map[uint32]float64{1: 3})
	o.Step(1, g)
	if g.Get(1) != 3 {
		t.Fatal("Step mutated the input gradient")
	}
}

func TestMomentumAccumulates(t *testing.T) {
	o := NewMomentum(Constant(1), 0.9)
	g := grad(map[uint32]float64{0: 1})
	u1 := o.Step(1, g).Clone() // Step reuses scratch; retain across calls
	u2 := o.Step(2, g)
	// v1 = 1, v2 = 0.9 + 1 = 1.9
	if math.Abs(u1.Get(0)+1) > 1e-12 {
		t.Fatalf("u1 = %v", u1.Get(0))
	}
	if math.Abs(u2.Get(0)+1.9) > 1e-12 {
		t.Fatalf("u2 = %v", u2.Get(0))
	}
}

func TestNesterovLookahead(t *testing.T) {
	o := NewNesterov(Constant(1), 0.9)
	g := grad(map[uint32]float64{0: 1})
	u1 := o.Step(1, g)
	// v1 = 1; u1 = -(g + mu*v1) = -(1 + 0.9) = -1.9
	if math.Abs(u1.Get(0)+1.9) > 1e-12 {
		t.Fatalf("u1 = %v", u1.Get(0))
	}
}

func TestNesterovDescendsQuadraticFasterThanSGD(t *testing.T) {
	// Minimize f(x) = 0.5*x² from x=10 with equal small rates; momentum
	// should make more progress over a fixed horizon.
	run := func(o Optimizer) float64 {
		x := 10.0
		for t := 1; t <= 50; t++ {
			g := grad(map[uint32]float64{0: x})
			u := o.Step(t, g)
			x += u.Get(0)
		}
		return math.Abs(x)
	}
	sgd := run(NewSGD(Constant(0.02)))
	nest := run(NewNesterov(Constant(0.02), 0.9))
	if nest >= sgd {
		t.Fatalf("Nesterov |x|=%v not faster than SGD |x|=%v", nest, sgd)
	}
}

func TestAdamFirstStepIsLearningRateSized(t *testing.T) {
	o := NewAdamDefaults(Constant(0.001))
	u := o.Step(1, grad(map[uint32]float64{3: 42}))
	// With bias correction, the first Adam step is ≈ −lr·sign(g).
	if math.Abs(u.Get(3)+0.001) > 1e-6 {
		t.Fatalf("first Adam step = %v, want ≈ -0.001", u.Get(3))
	}
}

func TestAdamScaleInvariance(t *testing.T) {
	// Adam normalizes by gradient magnitude: constant gradients of very
	// different scales must produce near-identical steps.
	small := NewAdamDefaults(Constant(0.01))
	large := NewAdamDefaults(Constant(0.01))
	var us, ul float64
	for t := 1; t <= 10; t++ {
		us = small.Step(t, grad(map[uint32]float64{0: 1e-3})).Get(0)
		ul = large.Step(t, grad(map[uint32]float64{0: 1e3})).Get(0)
	}
	if math.Abs(us-ul) > 1e-4 {
		t.Fatalf("Adam not scale invariant: %v vs %v", us, ul)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	o := NewAdamDefaults(Constant(0.5))
	x := 10.0
	for t := 1; t <= 400; t++ {
		g := grad(map[uint32]float64{0: x})
		x += o.Step(t, g).Get(0)
	}
	if math.Abs(x) > 0.5 {
		t.Fatalf("Adam did not converge: x=%v", x)
	}
}

func TestCloneIsolatesState(t *testing.T) {
	for _, o := range []Optimizer{
		NewMomentum(Constant(1), 0.9),
		NewNesterov(Constant(1), 0.9),
		NewAdamDefaults(Constant(0.1)),
	} {
		g := grad(map[uint32]float64{0: 1})
		o.Step(1, g)
		c := o.Clone()
		// Advancing the clone must not affect the original.
		c.Step(2, g)
		c.Step(3, g)
		uOrig := o.Step(2, g)
		fresh := o.Clone()
		_ = fresh
		uClone := c.Step(4, g)
		if uOrig.Get(0) == uClone.Get(0) {
			t.Fatalf("%s: clone state appears shared", o.Name())
		}
	}
}

func TestNames(t *testing.T) {
	names := map[string]Optimizer{
		"sgd":      NewSGD(Constant(1)),
		"momentum": NewMomentum(Constant(1), 0.9),
		"nesterov": NewNesterov(Constant(1), 0.9),
		"adam":     NewAdamDefaults(Constant(1)),
	}
	for want, o := range names {
		if o.Name() != want {
			t.Fatalf("Name = %s, want %s", o.Name(), want)
		}
	}
}

func TestUpdatesStaySparse(t *testing.T) {
	r := xrand.New(1)
	for _, o := range []Optimizer{
		NewSGD(InvSqrt(0.1)),
		NewMomentum(Constant(0.1), 0.9),
		NewNesterov(Constant(0.1), 0.9),
		NewAdamDefaults(Constant(0.1)),
	} {
		g := sparse.New()
		for i := 0; i < 10; i++ {
			g.Set(uint32(r.Intn(1000)), r.NormFloat64())
		}
		u := o.Step(1, g)
		if u.Len() > g.Len() {
			t.Fatalf("%s: update denser (%d) than gradient (%d)", o.Name(), u.Len(), g.Len())
		}
		u.ForEach(func(i uint32, _ float64) {
			if g.Get(i) == 0 {
				t.Errorf("%s: update touches coordinate %d absent from gradient", o.Name(), i)
			}
		})
	}
}

func TestStepDecay(t *testing.T) {
	s := StepDecay{Base: 1, Factor: 0.5, Every: 10}
	if s.Rate(1) != 1 || s.Rate(10) != 1 {
		t.Fatalf("first stage: %v, %v", s.Rate(1), s.Rate(10))
	}
	if s.Rate(11) != 0.5 || s.Rate(20) != 0.5 {
		t.Fatalf("second stage: %v, %v", s.Rate(11), s.Rate(20))
	}
	if s.Rate(21) != 0.25 {
		t.Fatalf("third stage: %v", s.Rate(21))
	}
	if s.Rate(0) != 1 {
		t.Fatal("non-positive step must clamp")
	}
	zero := StepDecay{Base: 2, Factor: 0.1, Every: 0}
	if zero.Rate(1) != 2 {
		t.Fatal("Every=0 must behave as Every=1 at t=1")
	}
}

func TestWarmup(t *testing.T) {
	w := Warmup{Steps: 10, Then: Constant(1)}
	if got := w.Rate(1); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("Rate(1) = %v", got)
	}
	if got := w.Rate(5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Rate(5) = %v", got)
	}
	if w.Rate(10) != 1 || w.Rate(100) != 1 {
		t.Fatal("post-ramp rate wrong")
	}
	none := Warmup{Steps: 0, Then: Constant(3)}
	if none.Rate(1) != 3 {
		t.Fatal("zero-length warmup must delegate")
	}
}

func TestWarmupMonotoneDuringRamp(t *testing.T) {
	w := Warmup{Steps: 50, Then: Constant(0.7)}
	prev := 0.0
	for t0 := 1; t0 <= 50; t0++ {
		r := w.Rate(t0)
		if r < prev {
			t.Fatalf("ramp decreased at %d", t0)
		}
		prev = r
	}
}

// --- sparse-state references: the bit-equality oracle for dense state ---

// refMomentum and refAdam are the sparse-state optimizers that dense
// state replaced: state in sparse.Vectors, looked up and set per
// gradient entry, and the update built by one Set per entry. The dense ones must
// reproduce them bit for bit.
type refMomentum struct {
	lr       Schedule
	mu       float64
	nesterov bool
	velocity *sparse.Vector
}

func (o *refMomentum) Name() string { return "ref-momentum" }

func (o *refMomentum) Step(t int, grad *sparse.Vector) *sparse.Vector {
	rate := o.lr.Rate(t)
	u := sparse.New()
	grad.ForEach(func(i uint32, g float64) {
		v := o.mu*o.velocity.Get(i) + g
		o.velocity.Set(i, v)
		if o.nesterov {
			u.Set(i, -rate*(g+o.mu*v))
		} else {
			u.Set(i, -rate*v)
		}
	})
	return u
}

func (o *refMomentum) Clone() Optimizer { c := *o; c.velocity = o.velocity.Clone(); return &c }

type refAdam struct {
	lr                Schedule
	beta1, beta2, eps float64
	moment1, moment2  *sparse.Vector
}

func (o *refAdam) Name() string { return "ref-adam" }

func (o *refAdam) Step(t int, grad *sparse.Vector) *sparse.Vector {
	rate := o.lr.Rate(t)
	c1 := 1 - math.Pow(o.beta1, float64(t))
	c2 := 1 - math.Pow(o.beta2, float64(t))
	u := sparse.New()
	grad.ForEach(func(i uint32, g float64) {
		m := o.beta1*o.moment1.Get(i) + (1-o.beta1)*g
		v := o.beta2*o.moment2.Get(i) + (1-o.beta2)*g*g
		o.moment1.Set(i, m)
		o.moment2.Set(i, v)
		u.Set(i, -rate*(m/c1)/(math.Sqrt(v/c2)+o.eps))
	})
	return u
}

func (o *refAdam) Clone() Optimizer {
	c := *o
	c.moment1, c.moment2 = o.moment1.Clone(), o.moment2.Clone()
	return &c
}

// stalls is a constant learning rate that is zero on every 13th step:
// there every update value is an exact zero and the step drops them all.
type stalls float64

func (s stalls) Rate(t int) float64 {
	if t%13 == 0 {
		return 0
	}
	return float64(s)
}

// denseState and refState expose the per-coordinate state of a dense
// optimizer and of its reference, in the same order.
func denseState(o Optimizer) [][]float64 {
	switch o := o.(type) {
	case *Momentum:
		return [][]float64{o.vel}
	case *Nesterov:
		return [][]float64{o.vel}
	case *Adam:
		m, v := make([]float64, len(o.st)), make([]float64, len(o.st))
		for i, x := range o.st {
			m[i], v[i] = x.m, x.v
		}
		return [][]float64{m, v}
	}
	panic("no dense state: " + o.Name())
}

func refState(o Optimizer) []*sparse.Vector {
	switch o := o.(type) {
	case *refMomentum:
		return []*sparse.Vector{o.velocity}
	case *refAdam:
		return []*sparse.Vector{o.moment1, o.moment2}
	}
	panic("no reference state: " + o.Name())
}

type entry struct {
	i    uint32
	bits uint64
}

// entries lists u's entries in ascending index order: index and value
// bits.
func entries(u *sparse.Vector) []entry {
	var out []entry
	u.ForEach(func(i uint32, x float64) { out = append(out, entry{i, math.Float64bits(x)}) })
	return out
}

// asRun returns a copy of g built in ascending order, one append per
// entry, as the step path builds the gradients it hands an optimizer.
func asRun(g *sparse.Vector) *sparse.Vector {
	r := sparse.New()
	g.ForEach(r.Set)
	return r
}

// oraclePair steps a dense optimizer and its sparse reference in lock
// step and checks, after every step, that the dense update is a run,
// that the updates hold the same entries with the same bits and that the
// state agrees at every coordinate either side holds.
type oraclePair struct{ dense, ref Optimizer }

func (p *oraclePair) step(t *testing.T, s int, g *sparse.Vector) []entry {
	t.Helper()
	u := p.dense.Step(s, g)
	var order []uint32
	u.ForEach(func(i uint32, _ float64) { order = append(order, i) })
	if !slices.IsSorted(order) {
		t.Fatalf("%s step %d: update in entry order %v, want an ascending run", p.dense.Name(), s, order)
	}
	got, want := entries(u), entries(p.ref.Step(s, g))
	if !slices.Equal(got, want) {
		t.Fatalf("%s step %d: update %v, reference %v", p.dense.Name(), s, got, want)
	}
	for k, d := range denseState(p.dense) {
		r := refState(p.ref)[k]
		r.ForEach(func(i uint32, _ float64) {
			if int(i) >= len(d) {
				t.Fatalf("%s step %d: state %d does not cover coordinate %d", p.dense.Name(), s, k, i)
			}
		})
		for i, x := range d {
			if math.Float64bits(x) != math.Float64bits(r.Get(uint32(i))) {
				t.Fatalf("%s step %d: state %d at %d = %v, reference %v", p.dense.Name(), s, k, i, x, r.Get(uint32(i)))
			}
		}
	}
	return got
}

// oracleGrad draws step s's gradient. Its width widens mid-run (50, then
// 3 000, then 20 000 coordinates), coordinates 1–4 are present at steps
// 1–3 and then absent until step 40, and the insertion order is random
// and perturbed by removals. On every fifth step up to three entries take
// the value cancel returns for the reference's current state.
func oracleGrad(r *xrand.RNG, s int, ref Optimizer, cancel func(Optimizer, uint32) float64) *sparse.Vector {
	w := 50
	switch {
	case s >= 25:
		w = 20000
	case s >= 10:
		w = 3000
	}
	g := sparse.New()
	if s <= 3 || s >= 40 {
		for i := uint32(1); i <= 4; i++ {
			g.Set(i, r.NormFloat64())
		}
	}
	for k := 0; k < 40; k++ {
		g.Set(uint32(8+r.Intn(w-8)), r.NormFloat64())
	}
	g.Remove(uint32(8 + r.Intn(w-8)))
	if s%5 == 0 && cancel != nil {
		n := 0
		g.ForEach(func(i uint32, _ float64) {
			if n < 3 {
				if x := cancel(ref, i); x != 0 {
					g.Set(i, x) // overwriting keeps the entry's position
					n++
				}
			}
		})
	}
	return g
}

// TestDenseStateMatchesSparseReference replays seeded gradient sequences
// through each dense-state optimizer and its sparse-state reference,
// once as built by Set and Remove in random order ("indexed") and once
// as copied in ascending order ("run"). The sequences widen past the
// state mid-run, bring back coordinates after a long absence, cancel
// state or update to exact zero (the step's drop path), clone mid-run
// and let the two copies diverge, and replay on fresh optimizers.
func TestDenseStateMatchesSparseReference(t *testing.T) {
	vel := func(o Optimizer, i uint32) float64 { return o.(*refMomentum).velocity.Get(i) }
	cases := []struct {
		name       string
		dense, ref func() Optimizer
		// cancel returns a gradient value at i that zeroes the
		// reference's velocity or update exactly (0: none).
		cancel func(o Optimizer, i uint32) float64
		drops  bool // whether cancel zeroes the update, not only state
	}{
		{"momentum", // g = −μ·vel: velocity and update cancel
			func() Optimizer { return NewMomentum(stalls(0.05), 0.9) },
			func() Optimizer { return &refMomentum{lr: stalls(0.05), mu: 0.9, velocity: sparse.New()} },
			func(o Optimizer, i uint32) float64 { return -(0.9 * vel(o, i)) }, true},
		{"nesterov", // g = −μ·vel: the velocity cancels, the update does not
			func() Optimizer { return NewNesterov(stalls(0.05), 0.9) },
			func() Optimizer {
				return &refMomentum{lr: stalls(0.05), mu: 0.9, nesterov: true, velocity: sparse.New()}
			},
			func(o Optimizer, i uint32) float64 { return -(0.9 * vel(o, i)) }, false},
		{"nesterov-mu1", // μ = 1, g = −vel/2: g + μ·(vel + g) = 0 exactly
			func() Optimizer { return NewNesterov(stalls(0.05), 1) },
			func() Optimizer { return &refMomentum{lr: stalls(0.05), mu: 1, nesterov: true, velocity: sparse.New()} },
			func(o Optimizer, i uint32) float64 { return -vel(o, i) / 2 }, true},
		{"adam",
			func() Optimizer { return NewAdamDefaults(stalls(0.01)) },
			func() Optimizer {
				return &refAdam{lr: stalls(0.01), beta1: 0.9, beta2: 0.999, eps: 1e-8, moment1: sparse.New(), moment2: sparse.New()}
			},
			nil, false},
		{"adam-beta1-half", // β1 = ½, g = −m: the first moment and update cancel
			func() Optimizer { return NewAdam(stalls(0.01), 0.5, 0.999, 1e-8) },
			func() Optimizer {
				return &refAdam{lr: stalls(0.01), beta1: 0.5, beta2: 0.999, eps: 1e-8, moment1: sparse.New(), moment2: sparse.New()}
			},
			func(o Optimizer, i uint32) float64 { return -o.(*refAdam).moment1.Get(i) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, form := range []string{"indexed", "run"} {
				t.Run(form, func(t *testing.T) {
					grad := func(r *xrand.RNG, s int, ref Optimizer) *sparse.Vector {
						g := oracleGrad(r, s, ref, tc.cancel)
						if form == "run" {
							g = asRun(g)
						}
						return g
					}
					r := xrand.New(7)
					p := &oraclePair{dense: tc.dense(), ref: tc.ref()}
					var grads []*sparse.Vector
					var first [][]entry
					var c *oraclePair
					cr := xrand.New(8)
					cancelled := 0 // update entries dropped on steps with a non-zero rate
					for s := 1; s <= 60; s++ {
						if s == 30 { // clone mid-run; the copies then see different gradients
							c = &oraclePair{dense: p.dense.Clone(), ref: p.ref.Clone()}
						}
						g := grad(r, s, p.ref)
						grads = append(grads, g)
						first = append(first, p.step(t, s, g))
						if s%13 != 0 {
							cancelled += g.Len() - len(first[s-1])
						}
						if c != nil {
							c.step(t, s, grad(cr, s, c.ref))
						}
					}
					if tc.drops && cancelled == 0 {
						t.Fatal("no update entry cancelled to zero: the drop path went unexercised")
					}
					// Fresh optimizers replaying the first 20 gradients must
					// repeat the original updates bit for bit.
					p = &oraclePair{dense: tc.dense(), ref: tc.ref()}
					for s := 1; s <= 20; s++ {
						if got := p.step(t, s, grads[s-1]); !slices.Equal(got, first[s-1]) {
							t.Fatalf("replay step %d: update %v, first run %v", s, got, first[s-1])
						}
					}
				})
			}
		})
	}
}

// TestOptimizerStepSteadyStateDoesNotAllocate pins the step path at zero
// allocations once the update scratch and the dense state have grown to
// the gradient.
func TestOptimizerStepSteadyStateDoesNotAllocate(t *testing.T) {
	g := pmfGrad(xrand.New(41), 1200, 2400, 20, 625)
	t.Run("run", func(t *testing.T) {
		for _, o := range []Optimizer{
			NewSGD(Constant(0.1)),
			NewMomentum(Constant(0.1), 0.9),
			NewNesterov(Constant(0.1), 0.9),
			NewAdamDefaults(Constant(0.1)),
		} {
			o.Step(1, g)
			step := 2
			if n := testing.AllocsPerRun(10, func() { o.Step(step, g); step++ }); n != 0 {
				t.Errorf("%s: Step allocated %v per run", o.Name(), n)
			}
		}
	})
}

// pmfGrad builds a gradient shaped like a PMF mini-batch's: each rating
// touches its user's and its item's rank-wide factor blocks, inserted in
// rating order (users first, items after users).
func pmfGrad(r *xrand.RNG, users, items, rank, ratings int) *sparse.Vector {
	g := sparse.New()
	for k := 0; k < ratings; k++ {
		u, it := r.Intn(users), r.Intn(items)
		for f := 0; f < rank; f++ {
			g.Add(uint32(u*rank+f), r.NormFloat64())
			g.Add(uint32((users+it)*rank+f), r.NormFloat64())
		}
	}
	return g
}

// lrGrad builds a gradient shaped like a logistic-regression mini-batch's
// on hashed Criteo-style features: 13 shared numeric coordinates and 26
// hashed categorical ones per sample.
func lrGrad(r *xrand.RNG, dim, samples int) *sparse.Vector {
	g := sparse.New()
	for k := 0; k < samples; k++ {
		for f := 0; f < 13; f++ {
			g.Add(uint32(f), r.NormFloat64())
		}
		for f := 0; f < 26; f++ {
			g.Add(uint32(13+r.Intn(dim-13)), r.NormFloat64())
		}
	}
	return g
}

// BenchmarkOptimizerStep measures one steady-state Step at the two
// training workloads' shapes: PMF with Nesterov (72 k parameters, 625
// ratings per batch) and LR with Adam (100 k hashed features, 50 samples
// per batch).
func BenchmarkOptimizerStep(b *testing.B) {
	pmf := pmfGrad(xrand.New(51), 1200, 2400, 20, 625)
	lr := lrGrad(xrand.New(52), 100_000, 50)
	for _, bc := range []struct {
		name string
		o    Optimizer
		g    *sparse.Vector
	}{
		{"nesterov-pmf", NewNesterov(Constant(0.1), 0.9), pmf},
		{"adam-lr", NewAdamDefaults(Constant(0.002)), lr},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.o.Step(1, bc.g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.o.Step(i+2, bc.g)
			}
			b.ReportMetric(float64(bc.g.Len()), "nnz")
		})
	}
}
