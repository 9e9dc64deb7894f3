package optimizer

import (
	"slices"

	"mlless/internal/sparse"
)

// SGD is plain stochastic gradient descent: u_t = −η_t·g_t.
type SGD struct {
	lr Schedule
	u  sparse.Vector // update scratch, valid until the next Step
}

var _ Optimizer = (*SGD)(nil)

// NewSGD returns an SGD optimizer with the given schedule.
func NewSGD(lr Schedule) *SGD { return &SGD{lr: lr} }

// Name implements Optimizer.
func (o *SGD) Name() string { return "sgd" }

// Step implements Optimizer.
func (o *SGD) Step(t int, grad *sparse.Vector) *sparse.Vector {
	o.u.CopyFrom(grad)
	o.u.Scale(-o.lr.Rate(t))
	return &o.u
}

// Clone implements Optimizer.
func (o *SGD) Clone() Optimizer { return &SGD{lr: o.lr} }

// Reset implements Optimizer. SGD is stateless.
func (o *SGD) Reset() {}

// Momentum is SGD with heavy-ball momentum:
//
//	v ← μ·v + g;  u = −η_t·v
//
// The velocity buffer is dense, indexed by coordinate, and "lazy":
// coordinates absent from a gradient keep their velocity undecayed until
// next touched, the standard sparse-training treatment.
type Momentum struct {
	lr  Schedule
	mu  float64
	vel []float64
	u   sparse.Vector // update scratch, valid until the next Step
}

var _ Optimizer = (*Momentum)(nil)

// NewMomentum returns a heavy-ball momentum optimizer.
func NewMomentum(lr Schedule, mu float64) *Momentum {
	return &Momentum{lr: lr, mu: mu}
}

// Name implements Optimizer.
func (o *Momentum) Name() string { return "momentum" }

// Step implements Optimizer.
func (o *Momentum) Step(t int, grad *sparse.Vector) *sparse.Vector {
	rate, mu := o.lr.Rate(t), o.mu
	vel := cover(o.vel, grad)
	o.vel = vel
	o.u.CopyFrom(grad)
	o.u.Transform(func(i uint32, g float64) float64 {
		v := mu*vel[i] + g
		vel[i] = v
		return -rate * v
	})
	return &o.u
}

// Clone implements Optimizer.
func (o *Momentum) Clone() Optimizer {
	return &Momentum{lr: o.lr, mu: o.mu, vel: slices.Clone(o.vel)}
}

// Reset implements Optimizer.
func (o *Momentum) Reset() { clear(o.vel) }

// Nesterov is SGD with Nesterov momentum (the PMF optimizer of Table 1):
//
//	v ← μ·v + g;  u = −η_t·(g + μ·v)
type Nesterov struct {
	lr  Schedule
	mu  float64
	vel []float64
	u   sparse.Vector // update scratch, valid until the next Step
}

var _ Optimizer = (*Nesterov)(nil)

// NewNesterov returns a Nesterov-momentum optimizer.
func NewNesterov(lr Schedule, mu float64) *Nesterov {
	return &Nesterov{lr: lr, mu: mu}
}

// Name implements Optimizer.
func (o *Nesterov) Name() string { return "nesterov" }

// Step implements Optimizer.
func (o *Nesterov) Step(t int, grad *sparse.Vector) *sparse.Vector {
	rate, mu := o.lr.Rate(t), o.mu
	vel := cover(o.vel, grad)
	o.vel = vel
	o.u.CopyFrom(grad)
	o.u.Transform(func(i uint32, g float64) float64 {
		v := mu*vel[i] + g
		vel[i] = v
		return -rate * (g + mu*v)
	})
	return &o.u
}

// Clone implements Optimizer.
func (o *Nesterov) Clone() Optimizer {
	return &Nesterov{lr: o.lr, mu: o.mu, vel: slices.Clone(o.vel)}
}

// Reset implements Optimizer.
func (o *Nesterov) Reset() { clear(o.vel) }
