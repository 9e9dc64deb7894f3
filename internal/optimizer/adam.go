package optimizer

import (
	"math"
	"slices"

	"mlless/internal/sparse"
)

// Adam implements the Adam optimizer (Kingma & Ba) with dense, lazily
// updated first and second moments — the LR optimizer of Table 1.
// Coordinates absent from a gradient keep their moments undecayed until
// next touched; bias correction uses the global step count, the
// standard "lazy Adam" treatment for sparse gradients.
type Adam struct {
	lr           Schedule
	beta1, beta2 float64
	eps          float64
	st           []moments
	u            sparse.Vector // update scratch, valid until the next Step
}

// moments holds one coordinate's first and second moment estimates.
type moments struct{ m, v float64 }

var _ Optimizer = (*Adam)(nil)

// NewAdam returns an Adam optimizer. Standard defaults: β1=0.9,
// β2=0.999, ε=1e-8.
func NewAdam(lr Schedule, beta1, beta2, eps float64) *Adam {
	return &Adam{lr: lr, beta1: beta1, beta2: beta2, eps: eps}
}

// NewAdamDefaults returns Adam with the canonical hyperparameters.
func NewAdamDefaults(lr Schedule) *Adam {
	return NewAdam(lr, 0.9, 0.999, 1e-8)
}

// Name implements Optimizer.
func (o *Adam) Name() string { return "adam" }

// Step implements Optimizer.
func (o *Adam) Step(t int, grad *sparse.Vector) *sparse.Vector {
	if t < 1 {
		t = 1
	}
	rate := o.lr.Rate(t)
	c1 := 1 - math.Pow(o.beta1, float64(t))
	c2 := 1 - math.Pow(o.beta2, float64(t))
	beta1, beta2, eps := o.beta1, o.beta2, o.eps
	st := cover(o.st, grad)
	o.st = st
	o.u.CopyFrom(grad)
	o.u.Transform(func(i uint32, g float64) float64 {
		m := beta1*st[i].m + (1-beta1)*g
		v := beta2*st[i].v + (1-beta2)*g*g
		st[i] = moments{m, v}
		mHat := m / c1
		vHat := v / c2
		return -rate * mHat / (math.Sqrt(vHat) + eps)
	})
	return &o.u
}

// Clone implements Optimizer.
func (o *Adam) Clone() Optimizer {
	return &Adam{
		lr: o.lr, beta1: o.beta1, beta2: o.beta2, eps: o.eps,
		st: slices.Clone(o.st),
	}
}

// Reset implements Optimizer.
func (o *Adam) Reset() { clear(o.st) }
