// Package allreduce models the collective-communication primitives of
// the serverful baseline. The paper's PyTorch setup uses Gloo's ring
// all-reduce ("rule of thumb for CPU training", §6.1) across VM workers;
// FaaS platforms cannot run these optimal HPC topologies at all because
// functions cannot open connections to each other (§2) — which is
// exactly why MLLess pays the indirect-communication tax instead.
//
// Besides the timing models, the package implements the actual dense
// reduction so baseline training produces real, bit-deterministic math.
package allreduce

import (
	"time"

	"mlless/internal/netmodel"
	"mlless/internal/sparse"
)

// ReduceTime is the shared kernel of every reduction timing model in
// the repo: a collective that runs for a number of sequential phases,
// each phase bounded by one transfer of bytesPerPhase over link. Ring,
// naive and tree topologies differ only in how many phases they need
// and how much each phase moves, so they all delegate here — and the
// storage-mediated exchange strategies (internal/exchange) reuse the
// same kernel for their closed-form estimates instead of re-deriving
// the math.
func ReduceTime(link netmodel.Link, phases, bytesPerPhase int) time.Duration {
	if phases <= 0 || bytesPerPhase <= 0 {
		return 0
	}
	return time.Duration(phases) * link.TransferTime(bytesPerPhase)
}

// RingTime returns the wall-clock of a bandwidth-optimal ring all-reduce
// of n bytes across p participants over link: 2(p−1) phases, each moving
// an n/p chunk between ring neighbours concurrently.
func RingTime(link netmodel.Link, p, n int) time.Duration {
	if p <= 1 || n <= 0 {
		return 0
	}
	return ReduceTime(link, 2*(p-1), (n+p-1)/p)
}

// NaiveTime returns the wall-clock of a gather-then-broadcast all-reduce
// through a root: the root serially receives p−1 full-size buffers and
// then serially sends p−1 back. It is the strawman RingTime beats; the
// ablation bench compares both.
func NaiveTime(link netmodel.Link, p, n int) time.Duration {
	if p <= 1 || n <= 0 {
		return 0
	}
	return ReduceTime(link, 2*(p-1), n)
}

// TreeLevels returns the number of fan-in rounds a tree reduction with
// the given fan-out needs to fold p participants into one root: the
// smallest L with fanout^L ≥ p. One participant needs no rounds.
func TreeLevels(p, fanout int) int {
	if p <= 1 {
		return 0
	}
	if fanout < 2 {
		fanout = 2
	}
	levels, reach := 0, 1
	for reach < p {
		reach *= fanout
		levels++
	}
	return levels
}

// TreeTime returns the wall-clock estimate of a tree reduce-broadcast of
// n bytes across p participants: TreeLevels fan-in rounds where each
// leader serially drains fanout−1 full buffers, plus one broadcast
// round. It is the closed-form counterpart of the TreeReduce exchange
// strategy's charged path, built from the same ReduceTime kernel the
// serverful baseline models use.
func TreeTime(link netmodel.Link, p, fanout, n int) time.Duration {
	if p <= 1 || n <= 0 {
		return 0
	}
	if fanout < 2 {
		fanout = 2
	}
	return ReduceTime(link, (fanout-1)*TreeLevels(p, fanout)+1, n)
}

// MeanDense overwrites dst with the element-wise mean of the gradient
// buffers (dst must be one of them or equal length). This is the real
// math an all-reduce-with-average performs in data-parallel SGD.
func MeanDense(dst sparse.Dense, buffers []sparse.Dense) {
	if len(buffers) == 0 {
		return
	}
	inv := 1 / float64(len(buffers))
	for i := range dst {
		sum := 0.0
		for _, b := range buffers {
			sum += b[i]
		}
		dst[i] = sum * inv
	}
}
