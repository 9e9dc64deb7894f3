package fit

import (
	"math"
	"testing"

	"mlless/internal/xrand"
)

func TestEWMAFirstValuePassesThrough(t *testing.T) {
	e := NewEWMA(0.2)
	if got := e.Update(10); got != 10 {
		t.Fatalf("first Update = %v", got)
	}
}

func TestEWMASmooths(t *testing.T) {
	e := NewEWMA(0.5)
	e.Update(0)
	if got := e.Update(10); got != 5 {
		t.Fatalf("Update = %v, want 5", got)
	}
}

func TestEWMAAlphaOneIsIdentity(t *testing.T) {
	e := NewEWMA(1)
	for _, x := range []float64{3, -7, 100} {
		if got := e.Update(x); got != x {
			t.Fatalf("alpha=1 Update(%v) = %v", x, got)
		}
	}
}

func TestEWMAInvalidAlphaFallsBack(t *testing.T) {
	for _, a := range []float64{0, -1, 2} {
		e := NewEWMA(a)
		e.Update(1)
		if got := e.Update(9); got != 9 {
			t.Fatalf("alpha=%v did not fall back to identity: %v", a, got)
		}
	}
}

func TestEWMADampensOutlier(t *testing.T) {
	e := NewEWMA(0.2)
	for i := 0; i < 20; i++ {
		e.Update(1)
	}
	spiked := e.Update(100)
	if spiked > 25 {
		t.Fatalf("outlier passed through: %v", spiked)
	}
}

func TestSmoothSeries(t *testing.T) {
	e := NewEWMA(0.5)
	want := []float64{0, 5, 7.5}
	for i, x := range []float64{0, 10, 10} {
		if got := e.Update(x); math.Abs(got-want[i]) > 1e-12 {
			t.Fatalf("step %d: smoothed %v, want %v", i, got, want[i])
		}
	}
}

func TestSolveLinear(t *testing.T) {
	m := [][]float64{{2, 1}, {1, 3}}
	y := []float64{5, 10}
	x, err := solveLinear(m, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	m := [][]float64{{1, 2}, {2, 4}}
	if _, err := solveLinear(m, []float64{1, 2}); err == nil {
		t.Fatal("singular system solved")
	}
}

func genCurve(c Curve, theta []float64, n int, noise float64, seed uint64) (ts, ys []float64) {
	r := xrand.New(seed)
	ts = make([]float64, n)
	ys = make([]float64, n)
	for i := 0; i < n; i++ {
		t := float64(i + 1)
		ts[i] = t
		ys[i] = c.Eval(theta, t) + r.NormFloat64()*noise
	}
	return ts, ys
}

func TestFitReferenceCurveRecovers(t *testing.T) {
	// Fig 2b's fitted values: θ = (0.05, 1.58, 0.58, 0.49).
	truth := []float64{0.05, 1.58, 0.58, 0.49}
	c := ReferenceCurve{}
	ts, ys := genCurve(c, truth, 120, 0, 2)
	fitted, err := FitCurve(c, ts, ys, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Coefficients of this family are only weakly identified; judge the
	// fit by prediction accuracy instead, including extrapolation.
	for _, step := range []float64{10, 60, 120, 200, 320} {
		pred := fitted.Eval(step)
		want := c.Eval(truth, step)
		if e := PredictionError(pred, want); e > 0.02 {
			t.Fatalf("step %v: predicted %v, want %v (err %v)", step, pred, want, e)
		}
	}
}

func TestFitSlowCurveRecovers(t *testing.T) {
	truth := []float64{1e-5, 4e-3, 0.9, 0.72}
	c := SlowCurve{}
	ts, ys := genCurve(c, truth, 150, 0, 3)
	fitted, err := FitCurve(c, ts, ys, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []float64{20, 80, 150, 250} {
		pred := fitted.Eval(step)
		want := c.Eval(truth, step)
		if e := PredictionError(pred, want); e > 0.02 {
			t.Fatalf("step %v: predicted %v, want %v (err %v)", step, pred, want, e)
		}
	}
}

func TestFitToleratesNoise(t *testing.T) {
	// Fig 2c reports prediction error < 1.5% up to 200 steps ahead; with
	// modest noise and EWMA smoothing our fitter must stay in that
	// ballpark when interpolating and extrapolating 2x beyond the data.
	truth := []float64{0.05, 1.58, 0.58, 0.49}
	c := ReferenceCurve{}
	ts, raw := genCurve(c, truth, 150, 0.005, 4)
	ys := make([]float64, len(raw))
	e := NewEWMA(0.3)
	for i, y := range raw {
		ys[i] = e.Update(y)
	}
	fitted, err := FitCurve(c, ts, ys, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []float64{100, 200, 300} {
		e := PredictionError(fitted.Eval(step), c.Eval(truth, step))
		if e > 0.03 {
			t.Fatalf("step %v: relative error %v", step, e)
		}
	}
}

func TestFitCoefficientsNonNegative(t *testing.T) {
	c := SlowCurve{}
	ts, ys := genCurve(c, []float64{1e-5, 1e-3, 1.2, 0.7}, 80, 0.01, 5)
	fitted, err := FitCurve(c, ts, ys, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range fitted.Theta {
		if v < 0 {
			t.Fatalf("theta[%d] = %v < 0", i, v)
		}
	}
}

func TestFitErrors(t *testing.T) {
	c := ReferenceCurve{}
	if _, err := FitCurve(c, []float64{1, 2}, []float64{1}, FitOptions{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FitCurve(c, []float64{1, 2, 3}, []float64{1, 2, 3}, FitOptions{}); err == nil {
		t.Fatal("underdetermined fit accepted")
	}
}

func TestCurvesMonotoneDecreasing(t *testing.T) {
	// Learning curves with positive θ0 must decrease in t.
	ref := ReferenceCurve{}
	slow := SlowCurve{}
	thetaRef := []float64{0.05, 1.2, 0.5, 0.4}
	thetaSlow := []float64{1e-5, 1e-3, 0.5, 0.4}
	for step := 1; step < 500; step++ {
		if ref.Eval(thetaRef, float64(step+1)) > ref.Eval(thetaRef, float64(step)) {
			t.Fatalf("reference curve increased at %d", step)
		}
		if slow.Eval(thetaSlow, float64(step+1)) > slow.Eval(thetaSlow, float64(step)) {
			t.Fatalf("slow curve increased at %d", step)
		}
	}
}

func TestCurveDenominatorFloor(t *testing.T) {
	// All-zero coefficients must not divide by zero.
	for _, c := range []Curve{ReferenceCurve{}, SlowCurve{}} {
		v := c.Eval([]float64{0, 0, 0, 0}, 10)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("%T: non-finite at zero theta", c)
		}
	}
}

func TestPredictionError(t *testing.T) {
	if got := PredictionError(11, 10); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("PredictionError = %v", got)
	}
	if got := PredictionError(0.5, 0); got != 0.5 {
		t.Fatalf("zero-actual PredictionError = %v", got)
	}
}

func BenchmarkFitReferenceCurve(b *testing.B) {
	c := ReferenceCurve{}
	ts, ys := genCurve(c, []float64{0.05, 1.58, 0.58, 0.49}, 150, 0.002, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitCurve(c, ts, ys, FitOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
