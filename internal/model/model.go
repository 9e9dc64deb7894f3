// Package model defines the ML models MLLess trains (§6.1, Table 1):
// sparse logistic regression (Criteo) and probabilistic matrix
// factorization (MovieLens). Models expose their parameters as one flat
// dense vector and produce mini-batch gradients as sparse vectors over
// that flat index space — the representation the significance filter, the
// optimizers and the communication layer all share.
//
// Every model also reports the floating-point work of a gradient step
// (GradientWork), which is the simulator's unit of compute time: the
// MLLess workers run the sparse version of this work on a single vCPU,
// while the serverful baseline runs a framework-style dense variant on
// multicore VMs (see internal/baseline).
package model

import (
	"math"
	"sync"

	"mlless/internal/shard"
	"mlless/internal/sparse"
)

// Model is a trainable ML model over a flat parameter vector.
//
// Implementations are not safe for concurrent mutation; in the simulator
// each worker owns a private replica (§3.1, "local replica of the
// model").
type Model interface {
	// Name identifies the model family ("lr", "pmf").
	Name() string
	// NumParams is the length of the flat parameter vector.
	NumParams() int
	// Params exposes the parameter vector. Callers must treat it as
	// owned by the model; ApplyUpdate is the mutation path.
	Params() sparse.Dense
	// GradientView returns the mini-batch loss gradient, averaged over
	// the batch, as a sparse vector over the flat parameter space,
	// evaluated straight off the staged columnar view — no per-step
	// decode. Per-sample contributions accumulate in sample order and,
	// within a sample, in ascending coordinate order; the committed
	// loss-history goldens pin that order bit for bit.
	//
	// The returned vector is an ascending run with no table behind it
	// (see package sparse), owned by the model and valid only until the
	// next GradientView call on the same instance (implementations reuse
	// a scratch buffer — gradient accumulation is the simulator's hottest
	// allocation site). Callers that retain it across calls must Clone
	// it.
	GradientView(b shard.BatchView) *sparse.Vector
	// LossView evaluates the model's training loss on a batch view (BCE
	// for logistic regression, RMSE for matrix factorization).
	LossView(b shard.BatchView) float64
	// ApplyUpdate adds a (already learning-rate-scaled) update to the
	// parameters: x ← x + u.
	ApplyUpdate(u *sparse.Vector)
	// Clone returns an independent deep copy of the model.
	Clone() Model
	// GradientWork estimates the floating-point operations of one
	// GradientView evaluation over a batch of the given size, using the
	// model's sparse representation.
	GradientWork(batchSize int) float64
	// DenseGradientWork estimates the flops of the same evaluation in a
	// dense framework representation (how PyTorch treats these models on
	// CPU, §6.2: "PyTorch's speed is affected by the high sparsity of
	// the datasets").
	DenseGradientWork(batchSize int) float64
}

// ViewModel is the name Model's view methods had while a []Sample twin
// existed; benchmark/ still spells it. The next benchmark-archetype PR
// removes the alias.
type ViewModel = Model

// accPool holds the dense accumulators gradients are summed into and
// emitted from as runs. Pooling keeps one per concurrently running
// gradient rather than one per model, so their memory follows the
// number of cores, not the number of workers.
var accPool = sync.Pool{New: func() any { return new(sparse.FoldScratch) }}

// sigmoid with guard against overflow in exp.
func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// clampLog bounds probabilities away from 0/1 before taking logs.
func clampLog(p float64) float64 {
	const eps = 1e-12
	if p < eps {
		p = eps
	} else if p > 1-eps {
		p = 1 - eps
	}
	return math.Log(p)
}
