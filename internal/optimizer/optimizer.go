// Package optimizer implements the first-order optimizers of the paper's
// prototype (§5): SGD, SGD with (heavy-ball) momentum, SGD with Nesterov
// momentum (used for PMF, Table 1) and Adam (used for LR, Table 1). All
// of them turn sparse gradients into sparse updates, the specialization
// that lets MLLess "save significant time on serializing and
// deserializing data" compared to dense frameworks (§6.2). Their state is
// dense, indexed by coordinate, so a step probes no table; it is at most
// twice the model's memory (Adam), plus up to 25 % growth headroom.
//
// Optimizers transform a mini-batch gradient g_t into a model update
// u_t = x_t − x_{t−1} (already negated and learning-rate scaled), the
// quantity the significance filter accumulates and workers exchange.
package optimizer

import (
	"math"

	"mlless/internal/sparse"
)

// Optimizer turns gradients into parameter updates. Implementations keep
// per-worker state (momentum buffers, Adam moments) and are not safe for
// concurrent use; each worker owns a private instance.
type Optimizer interface {
	// Name identifies the optimizer ("sgd", "momentum", "nesterov",
	// "adam").
	Name() string
	// Step converts the gradient of step t (1-based) into the update
	// u_t = −η_t·direction, mutating internal state. The returned
	// vector is scratch owned by the optimizer and valid only until
	// the next Step; callers that retain it must Clone. Clone and
	// Reset never share scratch.
	Step(t int, grad *sparse.Vector) *sparse.Vector
	// Clone returns an independent copy including optimizer state.
	Clone() Optimizer
	// Reset clears optimizer state (momentum buffers, moments).
	Reset()
}

// Schedule is a learning-rate schedule over 1-based steps.
type Schedule interface {
	// Rate returns η_t.
	Rate(t int) float64
}

// Constant is a fixed learning rate.
type Constant float64

// Rate implements Schedule.
func (c Constant) Rate(int) float64 { return float64(c) }

// InvSqrt decays as η_t = η/√t, the schedule of the paper's convergence
// analysis (Theorem 1).
type InvSqrt float64

// Rate implements Schedule.
func (s InvSqrt) Rate(t int) float64 {
	if t < 1 {
		t = 1
	}
	return float64(s) / math.Sqrt(float64(t))
}

// StepDecay multiplies the base rate by Factor every Every steps — the
// staircase schedule common in deep-learning recipes.
type StepDecay struct {
	// Base is the initial learning rate.
	Base float64
	// Factor is the per-stage multiplier in (0, 1].
	Factor float64
	// Every is the stage length in steps.
	Every int
}

// Rate implements Schedule.
func (s StepDecay) Rate(t int) float64 {
	if t < 1 {
		t = 1
	}
	every := s.Every
	if every <= 0 {
		every = 1
	}
	stages := (t - 1) / every
	return s.Base * math.Pow(s.Factor, float64(stages))
}

// Warmup linearly ramps the rate from 0 to the wrapped schedule's value
// over Steps steps, then delegates.
type Warmup struct {
	// Steps is the ramp length.
	Steps int
	// Then is the schedule in effect after the ramp.
	Then Schedule
}

// Rate implements Schedule.
func (w Warmup) Rate(t int) float64 {
	if t < 1 {
		t = 1
	}
	if w.Steps > 0 && t <= w.Steps {
		return w.Then.Rate(t) * float64(t) / float64(w.Steps)
	}
	return w.Then.Rate(t)
}
