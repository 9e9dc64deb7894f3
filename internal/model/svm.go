package model

import (
	"mlless/internal/shard"
	"mlless/internal/sparse"
)

// SVM is a sparse linear support-vector machine trained by subgradient
// descent on the L2-regularized hinge loss — a third fast-converging
// model family in the spirit of the paper's "robustness of many ML
// algorithms (e.g., logistic regression, matrix factorization, collapsed
// Gibbs, etc.)" (§4.1). Labels are {0, 1} as generated by the Criteo
// generator and mapped internally to {−1, +1}.
//
// Parameter layout matches LogReg: weights[0..dim), bias at index dim.
type SVM struct {
	dim    int
	l2     float64
	params sparse.Dense
	grad   *sparse.Vector // scratch run reused across gradient calls
}

var _ Model = (*SVM)(nil)

// NewSVM builds a zero-initialized sparse linear SVM over dim features
// with active-coordinate L2 strength l2.
func NewSVM(dim int, l2 float64) *SVM {
	return &SVM{dim: dim, l2: l2, params: sparse.NewDense(dim + 1)}
}

// Name implements Model.
func (m *SVM) Name() string { return "svm" }

// NumParams implements Model.
func (m *SVM) NumParams() int { return len(m.params) }

// Params implements Model.
func (m *SVM) Params() sparse.Dense { return m.params }

// margin returns the ±1 label and the score wᵀx + b of sample k.
func (m *SVM) margin(b shard.BatchView, k int) (y, wx float64) {
	y = -1.0
	if b.Label(k) >= 0.5 {
		y = 1.0
	}
	return y, b.Dot(k, m.params) + m.params[m.dim]
}

// LossGradientView implements Model: the mean hinge loss
// max(0, 1 − y·(wᵀx+b)) and its averaged subgradient (−y·x when
// y·(wᵀx+b) < 1, else 0) plus active-coordinate L2, applied as
// LogReg's is, from one margin per sample.
func (m *SVM) LossGradientView(b shard.BatchView) (float64, *sparse.Vector) {
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
		y, wx := m.margin(b, k)
		if h := 1 - y*wx; h > 0 {
			sum += h
		}
		if y*wx >= 1 {
			continue // correctly classified with margin: zero subgradient
		}
		b.FoldRow(k, -inv*y, acc)
		acc.Add(uint32(m.dim), -inv*y)
	}
	acc.EmitTo(g, activeL2(m.l2, m.params, m.dim))
	accPool.Put(acc)
	return sum / float64(n), g
}

// GradientView implements Model: LossGradientView's subgradient.
func (m *SVM) GradientView(b shard.BatchView) *sparse.Vector {
	_, g := m.LossGradientView(b)
	return g
}

// LossView implements Model: mean hinge loss max(0, 1 − y·(wᵀx+b)).
func (m *SVM) LossView(b shard.BatchView) float64 {
	n := b.Len()
	if n == 0 {
		return 0
	}
	sum := 0.0
	for k := 0; k < n; k++ {
		y, wx := m.margin(b, k)
		if h := 1 - y*wx; h > 0 {
			sum += h
		}
	}
	return sum / float64(n)
}

// ApplyUpdate implements Model.
func (m *SVM) ApplyUpdate(u *sparse.Vector) { m.params.AddSparse(u) }

// Clone implements Model. The scratch buffers are not shared.
func (m *SVM) Clone() Model {
	return &SVM{dim: m.dim, l2: m.l2, params: m.params.Clone()}
}

// GradientWork implements Model: like LogReg, a dot and an axpy over the
// active coordinates per sample.
func (m *SVM) GradientWork(batchSize int) float64 {
	return float64(batchSize) * lrAvgNNZ * 4
}
