package knee

import (
	"math"
	"testing"

	"mlless/internal/fit"
	"mlless/internal/xrand"
)

// lossCurve synthesizes a decreasing convex loss history with a knee
// around step kneeAt: fast exponential decay before, slow drift after.
func lossCurve(n, kneeAt int, noise float64, seed uint64) []float64 {
	r := xrand.New(seed)
	ys := make([]float64, n)
	for i := range ys {
		fast := 1.5 * math.Exp(-4*float64(i)/float64(kneeAt))
		slow := 0.5 * math.Exp(-0.1*float64(i)/float64(n))
		ys[i] = fast + slow + r.NormFloat64()*noise
	}
	return ys
}

func TestSlopeThresholdFindsKnee(t *testing.T) {
	ys := lossCurve(300, 60, 0, 1)
	idx, ok := (SlopeThreshold{}).Detect(ys)
	if !ok {
		t.Fatal("no knee found")
	}
	if idx < 20 || idx > 150 {
		t.Fatalf("knee at %d, expected near 60", idx)
	}
}

func TestSlopeThresholdNeverBeforeSteepRegion(t *testing.T) {
	ys := lossCurve(300, 100, 0, 2)
	idx, ok := (SlopeThreshold{}).Detect(ys)
	if !ok {
		t.Fatal("no knee found")
	}
	// At the knee the remaining loss reduction must be small relative to
	// the total: the detector must not fire in the fast region.
	dropBefore := ys[0] - ys[idx]
	total := ys[0] - ys[len(ys)-1]
	if dropBefore < 0.6*total {
		t.Fatalf("knee at %d captured only %.0f%% of the loss drop", idx, 100*dropBefore/total)
	}
}

func TestSlopeThresholdTooShort(t *testing.T) {
	if _, ok := (SlopeThreshold{}).Detect([]float64{3, 2, 1}); ok {
		t.Fatal("knee found in 3 points")
	}
}

func TestSlopeThresholdIncreasingCurve(t *testing.T) {
	ys := make([]float64, 100)
	for i := range ys {
		ys[i] = float64(i)
	}
	if _, ok := (SlopeThreshold{}).Detect(ys); ok {
		t.Fatal("knee found in increasing curve")
	}
}

func TestSlopeThresholdFlatCurve(t *testing.T) {
	ys := make([]float64, 100)
	for i := range ys {
		ys[i] = 1
	}
	if _, ok := (SlopeThreshold{}).Detect(ys); ok {
		t.Fatal("knee found in flat curve")
	}
}

func TestSlopeThresholdWithNoiseAndSmoothing(t *testing.T) {
	raw := lossCurve(300, 60, 0.01, 3)
	ys := make([]float64, len(raw))
	e := fit.NewEWMA(0.2)
	for i, y := range raw {
		ys[i] = e.Update(y)
	}
	idx, ok := (SlopeThreshold{}).Detect(ys)
	if !ok {
		t.Fatal("no knee found in smoothed noisy curve")
	}
	if idx < 20 || idx > 200 {
		t.Fatalf("knee at %d", idx)
	}
}

func TestSlopeThresholdRatioMonotone(t *testing.T) {
	// Stricter ratio (smaller) must fire at the same point or later.
	ys := lossCurve(400, 80, 0, 4)
	loose, okL := SlopeThreshold{Ratio: 0.3}.Detect(ys)
	strict, okS := SlopeThreshold{Ratio: 0.05}.Detect(ys)
	if !okL || !okS {
		t.Fatal("detector failed")
	}
	if strict < loose {
		t.Fatalf("strict ratio fired earlier (%d) than loose (%d)", strict, loose)
	}
}

func TestKneedleFindsKnee(t *testing.T) {
	ys := lossCurve(300, 60, 0, 5)
	idx, ok := (Kneedle{}).Detect(ys)
	if !ok {
		t.Fatal("Kneedle found no knee")
	}
	if idx < 15 || idx > 150 {
		t.Fatalf("Kneedle knee at %d, expected near 60", idx)
	}
}

func TestKneedleFlatAndShort(t *testing.T) {
	if _, ok := (Kneedle{}).Detect([]float64{1, 1, 1, 1, 1, 1}); ok {
		t.Fatal("knee in constant series")
	}
	if _, ok := (Kneedle{}).Detect([]float64{2, 1}); ok {
		t.Fatal("knee in 2 points")
	}
}

func TestKneedleOnCanonicalHyperbola(t *testing.T) {
	// y = 1/x over [1, 10]: known knee region around x≈2-3 (index 10-25
	// of 90 when sampled uniformly).
	ys := make([]float64, 90)
	for i := range ys {
		x := 1 + 9*float64(i)/89
		ys[i] = 1 / x
	}
	idx, ok := (Kneedle{}).Detect(ys)
	if !ok {
		t.Fatal("no knee on hyperbola")
	}
	if idx < 5 || idx > 35 {
		t.Fatalf("hyperbola knee at %d", idx)
	}
}

func TestDetectorsAgreeOnCleanCurve(t *testing.T) {
	ys := lossCurve(300, 70, 0, 6)
	a, okA := SlopeThreshold{}.Detect(ys)
	b, okB := Kneedle{}.Detect(ys)
	if !okA || !okB {
		t.Fatal("a detector failed")
	}
	// They need not match exactly, but must agree on the region.
	if math.Abs(float64(a-b)) > 100 {
		t.Fatalf("detectors wildly disagree: slope=%d kneedle=%d", a, b)
	}
}

// hostileCurves returns loss histories no training run should produce
// but a diverging or stalled one can: non-finite values, plateaus,
// rising and negative losses, all zeros, and every length from 0 to 5.
func hostileCurves() map[string][]float64 {
	nan, inf := math.NaN(), math.Inf(1)
	curves := map[string][]float64{
		"nan":        {1, 0.8, nan, 0.5, 0.4, 0.35, 0.3},
		"inf":        {1, 0.8, 0.6, inf, 0.4, 0.35, 0.3},
		"all nan":    {nan, nan, nan, nan, nan, nan},
		"plateau":    {0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
		"rising":     {0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8},
		"negative":   {-0.1, -0.5, -0.8, -0.9, -0.95, -0.97, -0.98},
		"all zero":   {0, 0, 0, 0, 0, 0, 0, 0},
		"knee":       lossCurve(120, 30, 0, 1),
		"noisy knee": lossCurve(120, 30, 0.02, 2),
	}
	for n := 0; n <= 5; n++ {
		curves["length "+string(rune('0'+n))] = lossCurve(120, 30, 0, 3)[:n]
	}
	return curves
}

// TestHostileCurves pins how the tuner's numerics meet bad input: the
// curve fits (both families) and both knee detectors never panic, a fit
// either errs or returns finite coefficients, and a knee lies inside
// the curve. On finite curves the detectors find the same knee after
// y ↦ 3y + 7, which changes neither the shape nor the scale-free slope.
func TestHostileCurves(t *testing.T) {
	detectors := map[string]Detector{"slope": SlopeThreshold{}, "kneedle": Kneedle{}}
	for name, ys := range hostileCurves() {
		ts := make([]float64, len(ys))
		for i := range ts {
			ts[i] = float64(i + 1)
		}
		for _, c := range []fit.Curve{fit.ReferenceCurve{}, fit.SlowCurve{}} {
			f, err := fit.FitCurve(c, ts, ys, fit.FitOptions{})
			if err != nil {
				continue
			}
			for k, th := range f.Theta {
				if math.IsNaN(th) || math.IsInf(th, 0) {
					t.Errorf("%s, %T: θ%d = %v with no error", name, c, k, th)
				}
			}
		}
		finite := true
		scaled := make([]float64, len(ys))
		for i, y := range ys {
			finite = finite && !math.IsNaN(y) && !math.IsInf(y, 0)
			scaled[i] = 3*y + 7
		}
		for dname, d := range detectors {
			idx, ok := d.Detect(ys)
			if ok && (idx < 0 || idx >= len(ys)) {
				t.Errorf("%s, %s: knee %d outside %d points", name, dname, idx, len(ys))
			}
			if !finite {
				continue
			}
			if sidx, sok := d.Detect(scaled); sidx != idx || sok != ok {
				t.Errorf("%s, %s: knee (%d, %v), after 3y+7 (%d, %v)", name, dname, idx, ok, sidx, sok)
			}
		}
	}
}
