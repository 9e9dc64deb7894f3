package fit

import (
	"math"
)

// Curve is a parametric learning-curve family with non-negative
// coefficients.
type Curve interface {
	// NumParams is the number of coefficients θ.
	NumParams() int
	// Eval computes the curve value at step t for coefficients theta.
	Eval(theta []float64, t float64) float64
	// InitialGuess proposes starting coefficients for the given data.
	InitialGuess(ts, ys []float64) []float64
}

// denomFloor keeps the reciprocal families finite when a fit drives the
// denominator toward zero.
const denomFloor = 1e-9

// ReferenceCurve is the paper's Eq. 2 family for the region of fast
// convergence, derived from the O(1/√(Bt) + 1/t) rate of mini-batch SGD:
//
//	L_P(t) = 1/(θ0·t^θ1 + θ2) + θ3
type ReferenceCurve struct{}

var _ Curve = ReferenceCurve{}

// NumParams implements Curve.
func (ReferenceCurve) NumParams() int { return 4 }

// Eval implements Curve.
func (ReferenceCurve) Eval(theta []float64, t float64) float64 {
	if t < 1 {
		t = 1
	}
	den := theta[0]*math.Pow(t, theta[1]) + theta[2]
	if den < denomFloor {
		den = denomFloor
	}
	return 1/den + theta[3]
}

// InitialGuess implements Curve: θ3 slightly under the smallest observed
// loss, θ2 matching the first observation, θ1 = 1, θ0 small.
func (ReferenceCurve) InitialGuess(ts, ys []float64) []float64 {
	lo, hi := minMax(ys)
	theta3 := 0.9 * lo
	first := hi - theta3
	if first <= 0 {
		first = 1
	}
	return []float64{0.05, 1.0, 1 / first, theta3}
}

// SlowCurve is the paper's Eq. 3 family (after SLAQ) for the flat region
// past the knee:
//
//	ℓ_p(t) = 1/(θ0·t² + θ1·t + θ2) + θ3
type SlowCurve struct{}

var _ Curve = SlowCurve{}

// NumParams implements Curve.
func (SlowCurve) NumParams() int { return 4 }

// Eval implements Curve.
func (SlowCurve) Eval(theta []float64, t float64) float64 {
	if t < 1 {
		t = 1
	}
	den := theta[0]*t*t + theta[1]*t + theta[2]
	if den < denomFloor {
		den = denomFloor
	}
	return 1/den + theta[3]
}

// InitialGuess implements Curve.
func (SlowCurve) InitialGuess(ts, ys []float64) []float64 {
	lo, hi := minMax(ys)
	theta3 := 0.9 * lo
	first := hi - theta3
	if first <= 0 {
		first = 1
	}
	return []float64{1e-6, 1e-3, 1 / first, theta3}
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Fitted couples a curve family with fitted coefficients.
type Fitted struct {
	Curve Curve
	Theta []float64
}

// Eval evaluates the fitted curve at step t.
func (f Fitted) Eval(t float64) float64 { return f.Curve.Eval(f.Theta, t) }
