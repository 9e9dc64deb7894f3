// Custom model: implement the mlless.Model interface for a model the
// library does not ship — ridge-regularized linear regression — and
// train it on MLLess. Anything exposing sparse gradients over a flat
// parameter vector can ride the ISP filter and the auto-tuner unchanged.
package main

import (
	"fmt"
	"log"
	"time"

	"mlless"
)

// linReg is linear regression with squared loss over sparse features.
// Parameter layout: weights[0..dim), bias at index dim.
type linReg struct {
	dim    int
	l2     float64
	params mlless.Dense
	acc    mlless.FoldScratch // gradient sums, emptied by every emission
}

var _ mlless.Model = (*linReg)(nil)

func newLinReg(dim int, l2 float64) *linReg {
	return &linReg{dim: dim, l2: l2, params: make(mlless.Dense, dim+1)}
}

func (m *linReg) Name() string         { return "linreg" }
func (m *linReg) NumParams() int       { return len(m.params) }
func (m *linReg) Params() mlless.Dense { return m.params }

// residual is the prediction error on sample k of a staged batch.
func (m *linReg) residual(b mlless.BatchView, k int) float64 {
	return b.Dot(k, m.params) + m.params[m.dim] - b.Label(k)
}

// LossGradientView returns the mean squared error and, from the same
// residual e of each sample, the averaged gradient of half the MSE (e·x
// per sample, not 2e·x) with active-coordinate L2, straight off the
// staged batch. Trainers call it once per step. The samples touch
// coordinates in any order, so the sums go to a dense accumulator,
// which emits them as the gradient's ascending run.
func (m *linReg) LossGradientView(b mlless.BatchView) (float64, *mlless.Vector) {
	g := new(mlless.Vector)
	n := b.Len()
	if n == 0 {
		return 0, g
	}
	inv := 1 / float64(n)
	sum := 0.0
	for k := 0; k < n; k++ {
		e := m.residual(b, k)
		sum += e * e
		b.ForEachPair(k, func(i uint32, val float64) {
			m.acc.Add(i, inv*(e*val+m.l2*m.params[i]))
		})
		m.acc.Add(uint32(m.dim), inv*e)
	}
	m.acc.EmitTo(g, nil)
	return sum / float64(n), g
}

// GradientView is LossGradientView's gradient.
func (m *linReg) GradientView(b mlless.BatchView) *mlless.Vector {
	_, g := m.LossGradientView(b)
	return g
}

// LossView is LossGradientView's mean squared error. Wrapping is safe
// here because every call builds a fresh gradient: a model that reuses
// a scratch gradient needs a loss-only pass instead.
func (m *linReg) LossView(b mlless.BatchView) float64 {
	loss, _ := m.LossGradientView(b)
	return loss
}

func (m *linReg) ApplyUpdate(u *mlless.Vector) { m.params.AddSparse(u) }

func (m *linReg) Clone() mlless.Model {
	return &linReg{dim: m.dim, l2: m.l2, params: m.params.Clone()}
}

// GradientWork is the model's one cost method: the flops of a gradient
// evaluation, here a dot and an axpy over ~8 non-zeros per sample. The
// trainers turn it into virtual compute time.
func (m *linReg) GradientWork(batchSize int) float64 {
	return float64(batchSize) * 8 * 4
}

func main() {
	// Synthetic regression data: y = w*·x + noise over sparse features.
	const dim = 5000
	ds := syntheticRegression(dim, 20_000)

	cluster := mlless.NewCluster()
	n := mlless.StageDatasetShards(cluster, ds, "reg", 400, 0, 3)

	job := mlless.Job{
		Spec: mlless.Spec{
			Workers:      6,
			Sync:         mlless.ISP,
			Significance: 0.5,
			MaxSteps:     400,
		},
		Model:      newLinReg(dim, 1e-4),
		Optimizer:  mlless.NewAdam(mlless.Constant(0.05)),
		Bucket:     "reg",
		NumBatches: n,
		BatchSize:  400,
	}
	res, err := mlless.Train(cluster, job)
	if err != nil {
		log.Fatal(err)
	}
	first, last := res.History[0], res.History[len(res.History)-1]
	fmt.Printf("custom model trained: MSE %.4f -> %.4f over %d steps (%v, $%.4f)\n",
		first.Loss, last.Loss, res.Steps, res.ExecTime.Round(time.Millisecond), res.Cost.Total)
	if last.Loss >= first.Loss {
		log.Fatal("did not converge")
	}
}

// syntheticRegression builds sparse samples with a planted linear model.
func syntheticRegression(dim, samples int) *mlless.Dataset {
	// Small deterministic generator (linear congruential, local to the
	// example).
	state := uint64(42)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 11
	}
	unif := func() float64 { return float64(next()%1_000_000) / 1_000_000 }

	truth := make([]float64, dim)
	for i := range truth {
		truth[i] = unif()*2 - 1
	}
	out := &mlless.Dataset{FeatureDim: dim}
	for k := 0; k < samples; k++ {
		x := new(mlless.Vector)
		y := 0.0
		for j := 0; j < 8; j++ {
			i := uint32(next() % uint64(dim))
			v := unif()
			x.Set(i, v)
			y += truth[i] * v
		}
		y += (unif() - 0.5) * 0.1 // noise
		out.Samples = append(out.Samples, mlless.Sample{Features: x, Label: y, User: -1, Item: -1})
	}
	return out
}
