// Package fit provides the numerical machinery of the scale-in
// auto-tuner (§4.2): an exponentially weighted moving average filter for
// de-noising loss streams, a projected Levenberg–Marquardt nonlinear
// least-squares fitter, and the paper's two learning-curve families
// (Eq. 2 and Eq. 3). The paper used SciPy's curve_fit with non-negative
// coefficients; this package re-implements that functionality on the
// standard library.
package fit

// EWMA is an exponentially weighted moving average filter. The paper
// passes all loss values through an EWMA "to remove outliers" before
// curve fitting (§4.2). The zero value is invalid; use NewEWMA.
type EWMA struct {
	alpha   float64
	value   float64
	started bool
}

// NewEWMA returns a filter with smoothing factor alpha in (0, 1]: the
// weight of the newest observation. alpha = 1 disables smoothing.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 1
	}
	return &EWMA{alpha: alpha}
}

// Update feeds an observation and returns the smoothed value.
func (e *EWMA) Update(x float64) float64 {
	if !e.started {
		e.value = x
		e.started = true
		return x
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}
