package model

import (
	"math"

	"mlless/internal/shard"
	"mlless/internal/sparse"
	"mlless/internal/xrand"
)

// PMF is probabilistic matrix factorization (Salakhutdinov & Mnih) of a
// partially observed Nu×Nm rating matrix into U (Nu×r) and M (Nm×r),
// R ≈ mean + U·Mᵀ, trained by SGD on squared error with L2 priors on the
// factors (§6.1: "we factorize the partially filled matrix of review
// ratings R into two latent matrices").
//
// Parameter layout (flat): user u's factors occupy
// [u·r, (u+1)·r); item i's occupy [(Nu+i)·r, (Nu+i+1)·r).
type PMF struct {
	users, items, rank int
	mean               float64
	l2                 float64
	params             sparse.Dense
	grad               *sparse.Vector // scratch run reused across gradient calls
	rows               []float64      // one sample's user and item gradient rows
}

var _ Model = (*PMF)(nil)

// NewPMF builds a PMF model with factors initialized from N(0, 0.1/√r)
// using the given seed (§6.1's sanity check requires every system to
// start from identical parameters, hence seeded init).
func NewPMF(users, items, rank int, mean, l2 float64, seed uint64) *PMF {
	m := &PMF{
		users: users, items: items, rank: rank,
		mean: mean, l2: l2,
		params: sparse.NewDense((users + items) * rank),
	}
	rng := xrand.New(seed)
	scale := 0.1 / math.Sqrt(float64(rank))
	for i := range m.params {
		m.params[i] = rng.NormFloat64() * scale
	}
	return m
}

// Name implements Model.
func (m *PMF) Name() string { return "pmf" }

// NumParams implements Model.
func (m *PMF) NumParams() int { return len(m.params) }

// Params implements Model.
func (m *PMF) Params() sparse.Dense { return m.params }

// Rank returns the latent dimension.
func (m *PMF) Rank() int { return m.rank }

// userOff and itemOff locate factor blocks in the flat vector.
func (m *PMF) userOff(u int) int { return u * m.rank }
func (m *PMF) itemOff(i int) int { return (m.users + i) * m.rank }

// predict returns mean + U_u · M_i.
func (m *PMF) predict(u, i int) float64 {
	uo, io := m.userOff(u), m.itemOff(i)
	dot := 0.0
	for k := 0; k < m.rank; k++ {
		dot += m.params[uo+k] * m.params[io+k]
	}
	return m.mean + dot
}

// LossGradientView implements Model: the RMSE over the batch and the
// averaged squared-error gradient with factor L2, from one prediction
// per sample. Only the factor rows of users/items present in the batch
// appear in the sparse gradient — this is what makes PMF updates sparse
// and the significance filter effective (§6.2).
func (m *PMF) LossGradientView(b shard.BatchView) (float64, *sparse.Vector) {
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
	if len(m.rows) != 2*m.rank {
		m.rows = make([]float64, 2*m.rank)
	}
	// Each sample's two rows are disjoint blocks of coordinates, and
	// samples fold in order, so every coordinate receives its additions
	// in the same order as one Add per entry would give it.
	urow, irow := m.rows[:m.rank], m.rows[m.rank:]
	sum := 0.0
	for s := 0; s < n; s++ {
		u, i := b.User(s), b.Item(s)
		uo, io := m.userOff(u), m.itemOff(i)
		e := m.predict(u, i) - b.Rating(s)
		sum += e * e
		up, ip := m.params[uo:uo+m.rank], m.params[io:io+m.rank]
		for k := range urow {
			uk, ik := up[k], ip[k]
			urow[k] = inv * (e*ik + m.l2*uk)
			irow[k] = inv * (e*uk + m.l2*ik)
		}
		acc.AddRow(uint32(uo), urow)
		acc.AddRow(uint32(io), irow)
	}
	acc.EmitTo(g, nil)
	accPool.Put(acc)
	return math.Sqrt(sum / float64(n)), g
}

// GradientView implements Model: LossGradientView's gradient.
func (m *PMF) GradientView(b shard.BatchView) *sparse.Vector {
	_, g := m.LossGradientView(b)
	return g
}

// LossView implements Model: RMSE over the batch (the paper's PMF metric).
func (m *PMF) LossView(b shard.BatchView) float64 {
	n := b.Len()
	if n == 0 {
		return 0
	}
	sum := 0.0
	for s := 0; s < n; s++ {
		e := m.predict(b.User(s), b.Item(s)) - b.Rating(s)
		sum += e * e
	}
	return math.Sqrt(sum / float64(n))
}

// ApplyUpdate implements Model.
func (m *PMF) ApplyUpdate(u *sparse.Vector) { m.params.AddSparse(u) }

// Clone implements Model. The scratch gradient buffer is not shared.
func (m *PMF) Clone() Model {
	return &PMF{
		users: m.users, items: m.items, rank: m.rank,
		mean: m.mean, l2: m.l2,
		params: m.params.Clone(),
	}
}

// GradientWork implements Model: ~6r flops per rating (dot product plus
// two factor-row updates).
func (m *PMF) GradientWork(batchSize int) float64 {
	return float64(batchSize) * 6 * float64(m.rank)
}

// DenseGradientWork implements Model: a dense framework builds and
// scatters full embedding-matrix gradients; we charge the sparse work
// with a framework overhead plus a pass over all parameters (dense
// gradient materialization + optimizer step), which is what makes
// PyTorch slow on highly sparse MovieLens data (§6.2).
func (m *PMF) DenseGradientWork(batchSize int) float64 {
	const frameworkOverhead = 4
	return m.GradientWork(batchSize)*frameworkOverhead + 2*float64(m.NumParams())
}
