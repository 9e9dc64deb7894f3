package model

import (
	"math"
	"testing"

	"mlless/internal/dataset"
	"mlless/internal/shard"
	"mlless/internal/sparse"
	"mlless/internal/xrand"
)

// viewOf packs a batch into a one-batch shard and returns its view.
func viewOf(t *testing.T, batch []dataset.Sample) shard.BatchView {
	t.Helper()
	b := shard.NewBuilder()
	for _, s := range batch {
		if s.IsRating() {
			b.AddRating(s.User, s.Item, s.Label)
		} else {
			b.AddFeature(s.Label, s.Features)
		}
	}
	b.EndBatch()
	sh, err := shard.Parse(b.Finish())
	if err != nil {
		t.Fatal(err)
	}
	return sh.Batch(0)
}

// numericalGradCheck verifies the analytic gradient of m against central
// finite differences of the *objective the gradient differentiates*
// (mean BCE for LR, mean squared error halves for PMF — see callers).
func numericalGradCheck(t *testing.T, m Model, bv shard.BatchView, objective func() float64, tol float64) {
	t.Helper()
	g := m.GradientView(bv)
	if g.Len() == 0 {
		t.Fatal("empty gradient")
	}
	params := m.Params()
	const h = 1e-6
	checked := 0
	g.ForEach(func(i uint32, analytic float64) {
		if checked >= 25 { // spot-check a bounded number of coordinates
			return
		}
		checked++
		orig := params[i]
		params[i] = orig + h
		up := objective()
		params[i] = orig - h
		down := objective()
		params[i] = orig
		numeric := (up - down) / (2 * h)
		if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
			t.Errorf("coord %d: analytic %v vs numeric %v", i, analytic, numeric)
		}
	})
}

func lrBatch(n int, seed uint64) []dataset.Sample {
	cfg := dataset.CriteoConfig{
		Samples: n, NumericFeatures: 3, CategoricalFeatures: 4,
		HashDim: 50, Cardinality: 20, Separation: 1.5, Seed: seed,
	}
	return dataset.GenerateCriteo(cfg).Samples
}

func mlBatch(n int, seed uint64) ([]dataset.Sample, dataset.MovieLensConfig) {
	cfg := dataset.MovieLensConfig{Users: 20, Items: 30, Ratings: n, Rank: 4, NoiseStd: 0.5, Seed: seed}
	return dataset.GenerateMovieLens(cfg).Samples, cfg
}

func TestLogRegGradientMatchesFiniteDifference(t *testing.T) {
	batch := lrBatch(16, 1)
	bv := viewOf(t, batch)
	m := NewLogReg(53, 0) // no reg: Loss is exactly the differentiated objective
	r := xrand.New(2)
	for i := range m.Params() {
		m.Params()[i] = r.NormFloat64() * 0.1
	}
	numericalGradCheck(t, m, bv, func() float64 { return m.LossView(bv) }, 1e-4)
}

func TestLogRegRegularizationAddsToGradient(t *testing.T) {
	batch := lrBatch(8, 3)
	bv := viewOf(t, batch)
	plain := NewLogReg(53, 0)
	reg := NewLogReg(53, 0.5)
	r := xrand.New(4)
	for i := range plain.Params() {
		v := r.NormFloat64()
		plain.Params()[i] = v
		reg.Params()[i] = v
	}
	gp := plain.GradientView(bv)
	gr := reg.GradientView(bv)
	diff := gr.Clone()
	diff.AddScaledVector(gp, -1)
	// diff must equal 0.5*w on the touched non-bias coords.
	ok := false
	diff.ForEach(func(i uint32, val float64) {
		if int(i) == plain.Dim() {
			return
		}
		if math.Abs(val-0.5*plain.Params()[i]) > 1e-9 {
			t.Errorf("coord %d: reg contribution %v, want %v", i, val, 0.5*plain.Params()[i])
		}
		ok = true
	})
	if !ok {
		t.Fatal("regularization changed nothing")
	}
}

func TestLogRegLossAtZeroIsLn2(t *testing.T) {
	batch := lrBatch(64, 5)
	bv := viewOf(t, batch)
	m := NewLogReg(53, 0)
	if got := m.LossView(bv); math.Abs(got-math.Ln2) > 1e-9 {
		t.Fatalf("zero-model BCE = %v, want ln 2", got)
	}
}

func TestLogRegSGDConverges(t *testing.T) {
	batch := lrBatch(512, 6)
	bv := viewOf(t, batch)
	m := NewLogReg(53, 0)
	initial := m.LossView(bv)
	for step := 0; step < 300; step++ {
		g := m.GradientView(bv)
		g.Scale(-0.5)
		m.ApplyUpdate(g)
	}
	final := m.LossView(bv)
	if final >= initial*0.85 {
		t.Fatalf("full-batch GD did not reduce BCE: %v -> %v", initial, final)
	}
}

func TestLogRegEmptyBatch(t *testing.T) {
	m := NewLogReg(10, 0.1)
	bv := viewOf(t, nil)
	if m.GradientView(bv).Len() != 0 {
		t.Fatal("empty batch produced a gradient")
	}
	if m.LossView(bv) != 0 {
		t.Fatal("empty batch produced loss")
	}
}

func TestPMFGradientMatchesFiniteDifference(t *testing.T) {
	batch, cfg := mlBatch(16, 7)
	bv := viewOf(t, batch)
	m := NewPMF(cfg.Users, cfg.Items, cfg.Rank, 3.5, 0, 11)
	// The PMF gradient differentiates mean 0.5*squared error, not RMSE.
	mse := func() float64 {
		sum := 0.0
		for _, s := range batch {
			e := m.predict(s.User, s.Item) - s.Label
			sum += 0.5 * e * e
		}
		return sum / float64(len(batch))
	}
	numericalGradCheck(t, m, bv, mse, 1e-4)
}

func TestPMFGradientTouchesOnlyBatchRows(t *testing.T) {
	batch, cfg := mlBatch(5, 8)
	bv := viewOf(t, batch)
	m := NewPMF(cfg.Users, cfg.Items, cfg.Rank, 3.5, 0.01, 12)
	g := m.GradientView(bv)
	allowed := make(map[uint32]bool)
	for _, s := range batch {
		for k := 0; k < cfg.Rank; k++ {
			allowed[uint32(m.userOff(s.User)+k)] = true
			allowed[uint32(m.itemOff(s.Item)+k)] = true
		}
	}
	g.ForEach(func(i uint32, _ float64) {
		if !allowed[i] {
			t.Errorf("gradient touches unrelated coordinate %d", i)
		}
	})
	if g.Len() > len(allowed) {
		t.Fatalf("gradient nnz %d > allowed %d", g.Len(), len(allowed))
	}
}

func TestPMFSGDConvergesTowardNoiseFloor(t *testing.T) {
	cfg := dataset.MovieLensConfig{Users: 60, Items: 120, Ratings: 8000, Rank: 6, NoiseStd: 0.5, Seed: 9}
	ds := dataset.GenerateMovieLens(cfg)
	m := NewPMF(cfg.Users, cfg.Items, cfg.Rank, ds.RatingMean, 0.02, 13)
	var batches []shard.BatchView
	for _, b := range ds.Split(500) {
		batches = append(batches, viewOf(t, b))
	}
	all := viewOf(t, ds.Samples)
	initial := m.LossView(all)
	for epoch := 0; epoch < 30; epoch++ {
		for _, b := range batches {
			g := m.GradientView(b)
			g.Scale(-2.0)
			m.ApplyUpdate(g)
		}
	}
	final := m.LossView(all)
	if final >= initial {
		t.Fatalf("SGD did not reduce RMSE: %v -> %v", initial, final)
	}
	if final > 1.0 {
		t.Fatalf("RMSE %v did not approach the ~0.5 noise floor", final)
	}
}

func TestPMFInitDeterministicBySeed(t *testing.T) {
	a := NewPMF(10, 10, 4, 3.5, 0, 42)
	b := NewPMF(10, 10, 4, 3.5, 0, 42)
	c := NewPMF(10, 10, 4, 3.5, 0, 43)
	pa, pb, pc := a.Params(), b.Params(), c.Params()
	differs := false
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed produced different init")
		}
		if pa[i] != pc[i] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical init")
	}
}

func TestCloneIndependence(t *testing.T) {
	batch := lrBatch(8, 10)
	bv := viewOf(t, batch)
	m := NewLogReg(53, 0)
	c := m.Clone()
	g := m.GradientView(bv)
	g.Scale(-1)
	c.ApplyUpdate(g)
	// Original must be untouched.
	for i, v := range m.Params() {
		if v != 0 {
			t.Fatalf("clone mutation leaked into original at %d: %v", i, v)
		}
	}
	if c.LossView(bv) == m.LossView(bv) {
		t.Fatal("clone unchanged after update")
	}
}

func TestPMFCloneIndependence(t *testing.T) {
	batch, cfg := mlBatch(8, 11)
	bv := viewOf(t, batch)
	m := NewPMF(cfg.Users, cfg.Items, cfg.Rank, 3.5, 0, 14)
	c := m.Clone()
	g := c.GradientView(bv)
	g.Scale(-0.1)
	c.ApplyUpdate(g)
	same := true
	for i := range m.Params() {
		if m.Params()[i] != c.Params()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("clone parameters did not diverge after update")
	}
	if m.LossView(bv) == c.LossView(bv) {
		t.Fatal("clone update did not diverge")
	}
}

func TestWorkEstimatesPositiveAndOrdered(t *testing.T) {
	lr := NewLogReg(100013, 0)
	pmf := NewPMF(2160, 14400, 20, 3.5, 0.01, 1)
	for _, m := range []Model{lr, pmf} {
		sw := m.GradientWork(1000)
		dw := m.DenseGradientWork(1000)
		if sw <= 0 || dw <= 0 {
			t.Fatalf("%s: non-positive work", m.Name())
		}
		if dw <= sw {
			t.Fatalf("%s: dense work %v not greater than sparse %v", m.Name(), dw, sw)
		}
	}
}

func TestSigmoidStable(t *testing.T) {
	if s := sigmoid(1000); s != 1 {
		t.Fatalf("sigmoid(1000) = %v", s)
	}
	if s := sigmoid(-1000); s != 0 {
		t.Fatalf("sigmoid(-1000) = %v", s)
	}
	if math.Abs(sigmoid(0)-0.5) > 1e-12 {
		t.Fatal("sigmoid(0) != 0.5")
	}
}

func TestPMFParamLayout(t *testing.T) {
	m := NewPMF(3, 5, 2, 3.5, 0, 1)
	if m.NumParams() != (3+5)*2 {
		t.Fatalf("NumParams = %d", m.NumParams())
	}
	if m.userOff(2) != 4 || m.itemOff(0) != 6 || m.itemOff(4) != 14 {
		t.Fatal("flat layout offsets wrong")
	}
	if m.Rank() != 2 {
		t.Fatal("Rank wrong")
	}
}

func TestSVMGradientMatchesFiniteDifference(t *testing.T) {
	batch := lrBatch(16, 31)
	bv := viewOf(t, batch)
	m := NewSVM(53, 0)
	r := xrand.New(32)
	for i := range m.Params() {
		m.Params()[i] = r.NormFloat64() * 0.1
	}
	// The hinge is non-differentiable exactly at margin 1; with random
	// continuous weights that event has measure zero, so the
	// finite-difference check is valid almost surely.
	numericalGradCheck(t, m, bv, func() float64 { return m.LossView(bv) }, 1e-4)
}

func TestSVMLossAtZeroIsOne(t *testing.T) {
	batch := lrBatch(64, 33)
	bv := viewOf(t, batch)
	m := NewSVM(53, 0)
	if got := m.LossView(bv); math.Abs(got-1) > 1e-9 {
		t.Fatalf("zero-model hinge = %v, want 1", got)
	}
}

func TestSVMSubgradientDescentConverges(t *testing.T) {
	batch := lrBatch(512, 34)
	bv := viewOf(t, batch)
	m := NewSVM(53, 1e-4)
	initial := m.LossView(bv)
	for step := 0; step < 300; step++ {
		g := m.GradientView(bv)
		g.Scale(-0.5)
		m.ApplyUpdate(g)
	}
	final := m.LossView(bv)
	if final >= initial*0.85 {
		t.Fatalf("SVM did not reduce hinge loss: %v -> %v", initial, final)
	}
}

func TestSVMMarginedSamplesContributeNothing(t *testing.T) {
	m := NewSVM(4, 0)
	// Weights classifying x=(1,0,0,0) with margin > 1 for label 1.
	m.Params()[0] = 5
	v := sparse.New()
	v.Set(0, 1)
	bv := viewOf(t, []dataset.Sample{{Features: v, Label: 1, User: -1, Item: -1}})
	if g := m.GradientView(bv); g.Len() != 0 {
		t.Fatalf("correctly-margined sample produced gradient %v", g)
	}
	if m.LossView(bv) != 0 {
		t.Fatal("correctly-margined sample produced loss")
	}
}

func TestSVMCloneIndependence(t *testing.T) {
	batch := lrBatch(8, 35)
	bv := viewOf(t, batch)
	m := NewSVM(53, 0)
	c := m.Clone()
	g := c.GradientView(bv)
	g.Scale(-1)
	c.ApplyUpdate(g)
	for _, v := range m.Params() {
		if v != 0 {
			t.Fatal("clone mutation leaked into original")
		}
	}
}

func TestModelNamesAndDims(t *testing.T) {
	lr := NewLogReg(10, 0)
	pmf := NewPMF(2, 3, 4, 3.5, 0, 1)
	svm := NewSVM(10, 0)
	if lr.Name() != "lr" || pmf.Name() != "pmf" || svm.Name() != "svm" {
		t.Fatal("model names wrong")
	}
	if svm.NumParams() != 11 || svm.Dim() != 10 {
		t.Fatalf("svm dims: %d params, %d dim", svm.NumParams(), svm.Dim())
	}
	if sw, dw := svm.GradientWork(100), svm.DenseGradientWork(100); sw <= 0 || dw <= sw {
		t.Fatalf("svm work estimates: %v, %v", sw, dw)
	}
}

func TestClampLogBounds(t *testing.T) {
	if v := clampLog(0); math.IsInf(v, -1) {
		t.Fatal("clampLog(0) = -Inf")
	}
	if v := clampLog(1); v != math.Log(1-1e-12) {
		t.Fatalf("clampLog(1) = %v", v)
	}
	if v := clampLog(0.5); v != math.Log(0.5) {
		t.Fatalf("clampLog(0.5) = %v", v)
	}
}
