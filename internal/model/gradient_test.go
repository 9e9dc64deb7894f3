package model

import (
	"bytes"
	"math"
	"testing"

	"mlless/internal/dataset"
	"mlless/internal/shard"
	"mlless/internal/sparse"
	"mlless/internal/xrand"
)

// The reference gradients below accumulate into a sparse.Vector, entry
// by entry, and fold active-coordinate L2 in afterwards from a second
// Vector — the way GradientView computed them before it summed into a
// dense accumulator. The differential tests hold the new kernels to
// them byte for byte.

func refPMFGradient(m *PMF, b shard.BatchView) *sparse.Vector {
	g := sparse.New()
	n := b.Len()
	if n == 0 {
		return g
	}
	inv := 1 / float64(n)
	for s := 0; s < n; s++ {
		u, i := b.User(s), b.Item(s)
		uo, io := m.userOff(u), m.itemOff(i)
		e := m.predict(u, i) - b.Rating(s)
		for k := 0; k < m.rank; k++ {
			uk, ik := m.params[uo+k], m.params[io+k]
			g.Add(uint32(uo+k), inv*(e*ik+m.l2*uk))
			g.Add(uint32(io+k), inv*(e*uk+m.l2*ik))
		}
	}
	return g
}

// refRegularize folds active-coordinate L2 into g: the terms are staged
// in a second vector over g's stored non-zeros, then added.
func refRegularize(g *sparse.Vector, l2 float64, params sparse.Dense, dim int) {
	if l2 <= 0 {
		return
	}
	reg := sparse.New()
	g.ForEach(func(i uint32, _ float64) {
		if int(i) != dim {
			reg.Add(i, l2*params[i])
		}
	})
	reg.ForEach(g.Add)
}

func refLogRegGradient(m *LogReg, b shard.BatchView) *sparse.Vector {
	g := sparse.New()
	n := b.Len()
	if n == 0 {
		return g
	}
	inv := 1 / float64(n)
	for k := 0; k < n; k++ {
		sampleErr := sigmoid(m.score(b, k)) - b.Label(k)
		b.ForEachPair(k, func(i uint32, val float64) { g.Add(i, inv*sampleErr*val) })
		g.Add(uint32(m.dim), inv*sampleErr)
	}
	refRegularize(g, m.l2, m.params, m.dim)
	return g
}

func refSVMGradient(m *SVM, b shard.BatchView) *sparse.Vector {
	g := sparse.New()
	n := b.Len()
	if n == 0 {
		return g
	}
	inv := 1 / float64(n)
	for k := 0; k < n; k++ {
		y, wx := m.margin(b, k)
		if y*wx >= 1 {
			continue
		}
		b.ForEachPair(k, func(i uint32, val float64) { g.Add(i, -inv*y*val) })
		g.Add(uint32(m.dim), -inv*y)
	}
	refRegularize(g, m.l2, m.params, m.dim)
	return g
}

// sameGradient fails unless got encodes to exactly want's bytes and is
// an ascending run (its ForEach order is ascending).
func sameGradient(t *testing.T, what string, got, want *sparse.Vector) {
	t.Helper()
	if g, w := got.EncodeTo(nil), want.EncodeTo(nil); !bytes.Equal(g, w) {
		t.Fatalf("%s: gradient differs from the Vector-accumulated reference\ngot  %v\nwant %v", what, got, want)
	}
	prev := int64(-1)
	got.ForEach(func(i uint32, _ float64) {
		if int64(i) <= prev {
			t.Fatalf("%s: gradient is not an ascending run: %d after %d", what, i, prev)
		}
		prev = int64(i)
	})
}

// fused returns m's loss and gradient from LossGradientView and fails
// unless the loss is LossView's, bit for bit. LossView runs while the
// gradient is held, which its loss-only pass must allow.
func fused(t *testing.T, what string, m Model, bv shard.BatchView) (float64, *sparse.Vector) {
	t.Helper()
	loss, g := m.LossGradientView(bv)
	if want := m.LossView(bv); math.Float64bits(loss) != math.Float64bits(want) {
		t.Fatalf("%s: fused loss %v, LossView %v", what, loss, want)
	}
	return loss, g
}

// emptyBatch checks that an empty batch, after a scratch gradient was
// filled, gives a zero loss and a cleared gradient.
func emptyBatch(t *testing.T, what string, m Model, bv shard.BatchView) {
	t.Helper()
	if loss, g := fused(t, what, m, bv); loss != 0 || g.Len() != 0 {
		t.Fatalf("%s: empty batch gives loss %v, gradient %v", what, loss, g)
	}
}

// ratingView builds a one-batch rating view.
func ratingView(t testing.TB, ratings [][3]float64) shard.BatchView {
	t.Helper()
	b := shard.NewBuilder()
	for _, r := range ratings {
		b.AddRating(int(r[0]), int(r[1]), r[2])
	}
	b.EndBatch()
	sh, err := shard.Parse(b.Finish())
	if err != nil {
		t.Fatal(err)
	}
	return sh.Batch(0)
}

// featureView builds a one-batch feature view from (label, pairs) rows.
func featureView(t testing.TB, rows []featureRow) shard.BatchView {
	t.Helper()
	b := shard.NewBuilder()
	for _, r := range rows {
		b.AddFeaturePairs(r.label, r.idx, r.vals)
	}
	b.EndBatch()
	sh, err := shard.Parse(b.Finish())
	if err != nil {
		t.Fatal(err)
	}
	return sh.Batch(0)
}

type featureRow struct {
	label float64
	idx   []uint32
	vals  []float64
}

// row builds a feature row from alternating ascending indices and
// values.
func row(label float64, kv ...float64) featureRow {
	r := featureRow{label: label}
	for k := 0; k+1 < len(kv); k += 2 {
		r.idx = append(r.idx, uint32(kv[k]))
		r.vals = append(r.vals, kv[k+1])
	}
	return r
}

func TestPMFGradientMatchesVectorReference(t *testing.T) {
	for _, l2 := range []float64{0, 0.02} {
		what := "l2=0"
		if l2 > 0 {
			what = "l2>0"
		}
		m := NewPMF(6, 5, 3, 3, l2, 4)
		// Repeated users and items (sample 3 repeats sample 0 exactly);
		// samples 4 and 5 rate one pair either side of its prediction p
		// by exactly ½ (p lies in [2.5, 3.5), so p ± ½ is exact), so
		// without L2 their contributions cancel; sample 6's error is
		// exactly zero.
		p := m.predict(2, 3)
		bv := ratingView(t, [][3]float64{
			{0, 0, 4}, {0, 1, 2}, {1, 0, 5}, {0, 0, 4},
			{2, 3, p + 0.5}, {2, 3, p - 0.5},
			{3, 4, m.predict(3, 4)},
		})
		_, g := fused(t, what, m, bv)
		sameGradient(t, what, g, refPMFGradient(m, bv))
		if l2 == 0 {
			for k := 0; k < m.rank; k++ {
				for _, i := range []int{m.userOff(2) + k, m.itemOff(3) + k, m.userOff(3) + k, m.itemOff(4) + k} {
					if x := g.Get(uint32(i)); x != 0 {
						t.Fatalf("coordinate %d = %v: the cancelling or zero-error samples contributed", i, x)
					}
				}
			}
		}

		// Real batches through the reused scratch.
		batch, cfg := mlBatch(200, 21)
		big := NewPMF(cfg.Users, cfg.Items, cfg.Rank, 3.5, l2, 5)
		for s := 0; s < 3; s++ {
			bv := viewOf(t, batch[s*60:(s+1)*60])
			_, g := fused(t, what+" batch", big, bv)
			sameGradient(t, what+" batch", g, refPMFGradient(big, bv))
		}
		emptyBatch(t, what+" empty", big, ratingView(t, nil))
	}
}

// TestPMFGradientRowsMatchPerEntryFold holds GradientView's row-wise
// fold to the per-entry FoldScratch.Add fold it replaced, byte for
// byte: one Add per coordinate, user and item interleaved. User 1 rates
// four items back to back, so its row is summed into the same slots on
// consecutive samples; rank 37 makes rows straddle bitmap words.
func TestPMFGradientRowsMatchPerEntryFold(t *testing.T) {
	for _, l2 := range []float64{0, 0.02} {
		m := NewPMF(5, 7, 37, 3, l2, 9)
		bv := ratingView(t, [][3]float64{
			{0, 2, 4}, {1, 0, 5}, {1, 3, 1}, {1, 6, 2}, {1, 3, 4}, {4, 6, 3}, {0, 2, 1},
		})
		n := bv.Len()
		inv := 1 / float64(n)
		var acc sparse.FoldScratch
		for s := 0; s < n; s++ {
			u, i := bv.User(s), bv.Item(s)
			uo, io := m.userOff(u), m.itemOff(i)
			e := m.predict(u, i) - bv.Rating(s)
			for k := 0; k < m.rank; k++ {
				uk, ik := m.params[uo+k], m.params[io+k]
				acc.Add(uint32(uo+k), inv*(e*ik+m.l2*uk))
				acc.Add(uint32(io+k), inv*(e*uk+m.l2*ik))
			}
		}
		want := sparse.New()
		acc.EmitTo(want, nil)
		for pass := 0; pass < 2; pass++ { // the second pass reuses the scratch
			sameGradient(t, "row fold", m.GradientView(bv), want)
		}
	}
}

// repeatedFeatures is a feature batch whose samples share features,
// one repeating another exactly.
func repeatedFeatures(t *testing.T) shard.BatchView {
	return featureView(t, []featureRow{
		row(1, 0, 1, 3, 2, 7, -1),
		row(0, 3, 2, 5, 4),
		row(1, 0, 1, 3, 2, 7, -1),
	})
}

// randomize fills params from a seeded normal distribution.
func randomize(params sparse.Dense, scale float64, seed uint64) {
	r := xrand.New(seed)
	for i := range params {
		params[i] = scale * r.NormFloat64()
	}
}

func TestLogRegGradientMatchesVectorReference(t *testing.T) {
	for _, l2 := range []float64{0, 0.5} {
		m := NewLogReg(53, l2)
		check := func(what string, bv shard.BatchView) *sparse.Vector {
			t.Helper()
			_, g := fused(t, what, m, bv)
			sameGradient(t, what, g, refLogRegGradient(m, bv))
			return g
		}
		check("repeated, zero weights", repeatedFeatures(t))
		randomize(m.params, 1, 1)
		check("repeated", repeatedFeatures(t))
		check("batch", viewOf(t, lrBatch(40, 3)))

		// Weights under which features 2 and 4 score exactly zero, though
		// both weights are non-zero: two opposite labels over them give
		// errors of exactly ∓½, whose sums cancel before L2 would add
		// l2·w — so the cancelled coordinates must stay out.
		m.params[2], m.params[4], m.params[m.dim] = 0.75, -0.5, -0.25
		g := check("cancel", featureView(t, []featureRow{row(1, 2, 1, 4, 1), row(0, 2, 1, 4, 1), row(1, 6, 0.5)}))
		if g.Get(2) != 0 || g.Get(4) != 0 {
			t.Fatalf("l2=%v: cancelled coordinates kept: %v", l2, g)
		}
		// A label of ½ at score zero: the error is exactly zero.
		if g := check("zero error", featureView(t, []featureRow{row(0.5, 2, 1, 4, 1)})); g.Len() != 0 {
			t.Fatalf("l2=%v: zero-error sample: gradient %v, want empty", l2, g)
		}
		// Scores of ±50 put σ within 1e-12 of the wrong label, one each
		// way: clampLog clamps both logs, so the loss is −log 1e-12.
		m.params[6] = 50
		clamped := featureView(t, []featureRow{row(0, 6, 1), row(1, 6, -1)})
		check("clamped", clamped)
		if loss := m.LossView(clamped); loss != -math.Log(1e-12) {
			t.Fatalf("l2=%v: clamped loss %v, want %v", l2, loss, -math.Log(1e-12))
		}
		emptyBatch(t, "empty", m, featureView(t, nil))
	}
}

func TestSVMGradientMatchesVectorReference(t *testing.T) {
	for _, l2 := range []float64{0, 0.5} {
		m := NewSVM(53, l2)
		check := func(what string, bv shard.BatchView) *sparse.Vector {
			t.Helper()
			_, g := fused(t, what, m, bv)
			sameGradient(t, what, g, refSVMGradient(m, bv))
			return g
		}
		check("repeated, zero weights", repeatedFeatures(t))
		randomize(m.params, 0.3, 7)
		check("repeated", repeatedFeatures(t))
		check("batch", viewOf(t, lrBatch(40, 3)))

		// Both labels inside the margin over features 2 and 4: the
		// subgradients −y·x cancel exactly, bias included, before L2.
		m.params[2], m.params[4], m.params[m.dim] = 0.25, -0.5, 0
		g := check("cancel", featureView(t, []featureRow{row(1, 2, 1, 4, 1), row(0, 2, 1, 4, 1), row(1, 6, 0.5)}))
		if g.Get(2) != 0 || g.Get(4) != 0 {
			t.Fatalf("l2=%v: cancelled coordinates kept: %v", l2, g)
		}
		// y·(wᵀx+b) = 1 exactly: a zero subgradient.
		if g := check("zero error", featureView(t, []featureRow{row(1, 2, 4)})); g.Len() != 0 {
			t.Fatalf("l2=%v: sample on the margin: gradient %v, want empty", l2, g)
		}
		emptyBatch(t, "empty", m, featureView(t, nil))
	}
}

// TestPooledScratchAcrossModelWidths runs gradients of models of very
// different widths, interleaved, through the one accumulator pool: a
// scratch grown by a wide model and reused by a narrow one (and back)
// must emit exactly the reference each time.
func TestPooledScratchAcrossModelWidths(t *testing.T) {
	narrow := NewLogReg(53, 0.5)
	wide := NewLogReg(100_013, 1e-4)
	batch, cfg := mlBatch(120, 31)
	pmf := NewPMF(cfg.Users, cfg.Items, cfg.Rank, 3.5, 0.02, 6)
	wideRows := []featureRow{row(1, 5, 1, 99_000, 1, 100_012, 2), row(0, 17, 3, 100_012, 1)}
	for round := 0; round < 3; round++ {
		bv := viewOf(t, lrBatch(30, uint64(round+1)))
		sameGradient(t, "narrow", narrow.GradientView(bv), refLogRegGradient(narrow, bv))
		wv := featureView(t, wideRows)
		sameGradient(t, "wide", wide.GradientView(wv), refLogRegGradient(wide, wv))
		pv := viewOf(t, batch[round*40:(round+1)*40])
		sameGradient(t, "pmf", pmf.GradientView(pv), refPMFGradient(pmf, pv))
	}
}

// TestGradientIndicesPastWidthGrowTheScratch feeds feature indices past
// the model's width: the accumulator grows to hold them, as a Vector
// would, instead of panicking.
func TestGradientIndicesPastWidthGrowTheScratch(t *testing.T) {
	for _, m := range []Model{NewLogReg(10, 0), NewSVM(10, 0), NewLogReg(10, 0.5)} {
		bv := featureView(t, []featureRow{row(1, 3, 1, 50_000, 2), row(0, 70_000, 1)})
		var want *sparse.Vector
		switch mm := m.(type) {
		case *LogReg:
			want = refGradientPastWidth(func() *sparse.Vector { return refLogRegGradient(mm, bv) })
		case *SVM:
			want = refGradientPastWidth(func() *sparse.Vector { return refSVMGradient(mm, bv) })
		}
		got := m.GradientView(bv)
		if got.Get(70_000) == 0 || got.Get(50_000) == 0 {
			t.Fatalf("%s: indices past the width dropped: %v", m.Name(), got)
		}
		if want != nil {
			sameGradient(t, m.Name(), got, want)
		}
	}
}

// refGradientPastWidth runs a reference that may index params past the
// model's width (its L2 pass did) and returns nil when it panics.
func refGradientPastWidth(ref func() *sparse.Vector) (g *sparse.Vector) {
	defer func() {
		if recover() != nil {
			g = nil
		}
	}()
	return ref()
}

// TestGradientViewWarmDoesNotAllocate pins a warm GradientView and a
// warm LossGradientView, all three models, at zero allocations: the
// accumulator is pooled and the run the model returns reuses its arrays.
func TestGradientViewWarmDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	batch, cfg := mlBatch(200, 41)
	pv := viewOf(t, batch)
	fv := viewOf(t, lrBatch(50, 42))
	for _, c := range []struct {
		m  Model
		bv shard.BatchView
	}{
		{NewPMF(cfg.Users, cfg.Items, cfg.Rank, 3.5, 0.02, 7), pv},
		{NewLogReg(53, 1e-4), fv},
		{NewSVM(53, 1e-4), fv},
	} {
		c.m.GradientView(c.bv)
		if n := testing.AllocsPerRun(20, func() { c.m.GradientView(c.bv) }); n != 0 {
			t.Errorf("%s: warm GradientView allocates %.1f times", c.m.Name(), n)
		}
		if n := testing.AllocsPerRun(20, func() { c.m.LossGradientView(c.bv) }); n != 0 {
			t.Errorf("%s: warm LossGradientView allocates %.1f times", c.m.Name(), n)
		}
	}
}

// BenchmarkGradientView times LossGradientView, the one pass a training
// step makes, at three training shapes: PMF at pmf-isp-autotune's
// (B = 625 ratings, rank 20, 1200 × 2400, so 72 k parameters), LogReg at
// lr-bsp-wide's (B = 50 Criteo-shaped samples over 100 013 features) and
// the SVM at the fleet zoo's (B = 125 over 20 000 features).
func BenchmarkGradientView(b *testing.B) {
	pmfCfg := dataset.MovieLensConfig{Users: 1200, Items: 2400, Ratings: 625, Rank: 20, NoiseStd: 0.5, Seed: 1}
	ml := dataset.GenerateMovieLens(pmfCfg)
	crit := dataset.DefaultCriteoConfig()
	crit.Samples = 50
	cr := dataset.GenerateCriteo(crit)
	crit.Samples, crit.HashDim = 125, 20_000
	zoo := dataset.GenerateCriteo(crit)
	for _, c := range []struct {
		name string
		m    Model
		bv   shard.BatchView
	}{
		{"pmf", NewPMF(pmfCfg.Users, pmfCfg.Items, pmfCfg.Rank, ml.RatingMean, 0.02, 1), viewOf(b, ml.Samples)},
		{"lr", NewLogReg(cr.FeatureDim, 1e-4), viewOf(b, cr.Samples)},
		{"svm", NewSVM(zoo.FeatureDim, 1e-4), viewOf(b, zoo.Samples)},
	} {
		b.Run(c.name, func(b *testing.B) {
			_, g := c.m.LossGradientView(c.bv)
			nnz := g.Len()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.m.LossGradientView(c.bv)
			}
			b.ReportMetric(float64(nnz), "grad_nnz")
		})
	}
}
