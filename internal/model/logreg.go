package model

import (
	"mlless/internal/shard"
	"mlless/internal/sparse"
)

// LogReg is sparse binary logistic regression with L2 regularization on
// the active coordinates of each mini-batch (the standard sparse-training
// approximation: regularizing all 1e5 coordinates per step would turn
// every update dense and defeat the point of sparse gradients, §5).
//
// Parameter layout: weights[0..dim) then the bias at index dim.
type LogReg struct {
	dim    int
	l2     float64
	params sparse.Dense
	grad   *sparse.Vector // scratch run reused across gradient calls
}

var _ Model = (*LogReg)(nil)

// NewLogReg builds a zero-initialized model over dim input features.
// l2 is the per-step active-coordinate regularization strength.
func NewLogReg(dim int, l2 float64) *LogReg {
	return &LogReg{dim: dim, l2: l2, params: sparse.NewDense(dim + 1)}
}

// Name implements Model.
func (m *LogReg) Name() string { return "lr" }

// NumParams implements Model.
func (m *LogReg) NumParams() int { return len(m.params) }

// Params implements Model.
func (m *LogReg) Params() sparse.Dense { return m.params }

// score computes wᵀx + b for sample k of the view.
func (m *LogReg) score(b shard.BatchView, k int) float64 {
	return b.Dot(k, m.params) + m.params[m.dim]
}

// LossGradientView implements Model: the mean binary cross-entropy and
// its averaged gradient (σ(wᵀx+b) − y)·x plus active-coordinate L2,
// from one σ per sample. Only coordinates whose sample sum is non-zero
// are regularized, as the emission's last term.
func (m *LogReg) LossGradientView(b shard.BatchView) (float64, *sparse.Vector) {
	if m.grad == nil {
		m.grad = sparse.New()
	}
	g := m.grad
	n := b.Len()
	if n == 0 {
		g.Clear()
		return 0, g
	}
	acc := accPool.Get().(*sparse.FoldScratch)
	inv := 1 / float64(n)
	sum := 0.0
	for k := 0; k < n; k++ {
		p, y := sigmoid(m.score(b, k)), b.Label(k)
		if y >= 0.5 {
			sum -= clampLog(p)
		} else {
			sum -= clampLog(1 - p)
		}
		sampleErr := p - y
		b.FoldRow(k, inv*sampleErr, acc)
		acc.Add(uint32(m.dim), inv*sampleErr) // bias
	}
	acc.EmitTo(g, activeL2(m.l2, m.params, m.dim))
	accPool.Put(acc)
	return sum / float64(n), g
}

// GradientView implements Model: LossGradientView's gradient.
func (m *LogReg) GradientView(b shard.BatchView) *sparse.Vector {
	_, g := m.LossGradientView(b)
	return g
}

// activeL2 returns the emission finisher that adds active-coordinate
// L2 to a linear model's gradient: l2·w[i] on every weight whose sample
// sum is non-zero, none on the bias at index dim (nor past it), and nil
// when l2 ≤ 0.
func activeL2(l2 float64, params sparse.Dense, dim int) func(i uint32, s float64) float64 {
	if l2 <= 0 {
		return nil
	}
	return func(i uint32, s float64) float64 {
		if int(i) < dim {
			s += l2 * params[i]
		}
		return s
	}
}

// LossView implements Model: mean binary cross-entropy over the batch.
func (m *LogReg) LossView(b shard.BatchView) float64 {
	n := b.Len()
	if n == 0 {
		return 0
	}
	sum := 0.0
	for k := 0; k < n; k++ {
		p := sigmoid(m.score(b, k))
		if b.Label(k) >= 0.5 {
			sum -= clampLog(p)
		} else {
			sum -= clampLog(1 - p)
		}
	}
	return sum / float64(n)
}

// ApplyUpdate implements Model.
func (m *LogReg) ApplyUpdate(u *sparse.Vector) { m.params.AddSparse(u) }

// Clone implements Model. The scratch buffers are not shared.
func (m *LogReg) Clone() Model {
	return &LogReg{dim: m.dim, l2: m.l2, params: m.params.Clone()}
}

// avgNNZ is the expected non-zeros per Criteo-shaped sample (13 numeric
// + 26 categorical); used only for work estimation.
const lrAvgNNZ = 39

// GradientWork implements Model: a dot product and an axpy over the
// active coordinates per sample (~4 flops per non-zero).
func (m *LogReg) GradientWork(batchSize int) float64 {
	return float64(batchSize) * lrAvgNNZ * 4
}
