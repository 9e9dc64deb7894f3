package exchange

import (
	"fmt"
	"time"

	"mlless/internal/allreduce"
	"mlless/internal/sparse"
	"mlless/internal/vclock"
)

// TreeReduce folds updates through a fan-in tree over object storage:
// ranks are grouped by the fan-out, each group's members upload their
// partial sums and the group leader folds them, level by level, until
// rank 0 holds the total and republishes it once. Request traffic is
// O(P) per step — the cheap end of the collective spectrum — at the
// price of O(log P) serial storage round trips. The closed-form
// counterpart of its charged path is allreduce.TreeTime, built from the
// same ReduceTime kernel as the serverful baseline's models.
type TreeReduce struct {
	collectiveBase
	fanout int
}

func newTreeReduce(env Env) *TreeReduce {
	fanout := env.Fanout
	if fanout == 0 {
		fanout = DefaultTreeFanout
	}
	return &TreeReduce{collectiveBase: newCollectiveBase(env), fanout: fanout}
}

// Name implements Exchange.
func (x *TreeReduce) Name() string { return KindTree }

// Publish implements Exchange: no storage traffic yet — the encoded
// update seeds the worker's partial sum, which the fan-in rounds fold
// upward.
func (x *TreeReduce) Publish(clk *vclock.Clock, worker, step int, sig *sparse.Vector, ids []int, scratch []byte) ([]byte, error) {
	payload := sig.EncodeTo(scratch)
	st := x.state(worker)
	st.run = append(st.run[:0], payload...)
	x.cPublishes.Inc()
	return payload, nil
}

// Rounds implements Exchange: an upload and a gather phase per tree
// level.
func (x *TreeReduce) Rounds(p int) int {
	if p <= 1 {
		return 0
	}
	return 2 * allreduce.TreeLevels(p, x.fanout)
}

// stride returns the rank distance between level-lvl group neighbours:
// fanout^lvl.
func (x *TreeReduce) stride(lvl int) int {
	s := 1
	for i := 0; i < lvl; i++ {
		s *= x.fanout
	}
	return s
}

// RunRound implements Exchange. Even rounds are upload phases: the
// members of level r/2 (ranks that participate there but do not lead)
// upload their partial sums as they stand. Odd rounds are gather
// phases: each level-r/2 leader waits for the uploads, folds its own
// run and its children's in rank order through its dense scratch
// (bit-deterministic; see sparse.FoldScratch.FoldEncoded) and — if it
// is rank 0 finishing the last level — republishes the total.
func (x *TreeReduce) RunRound(clk *vclock.Clock, worker, step, round int, ids []int, readyAt time.Duration) error {
	p := len(ids)
	if p <= 1 {
		return nil
	}
	pos := posOf(ids, worker)
	if pos < 0 {
		return fmt.Errorf("worker %d not in the active set", worker)
	}
	st := x.state(worker)
	lvl := round / 2
	stride := x.stride(lvl)
	leaderStride := stride * x.fanout

	if round%2 == 0 {
		if pos%stride != 0 || pos%leaderStride == 0 {
			return nil
		}
		x.env.Obj.Put(clk, x.env.Bucket, levelKey(step, lvl, pos), st.run)
		x.classA.Add(1)
		x.cRounds.Inc()
		return nil
	}

	if pos%leaderStride != 0 {
		return nil
	}
	keys := st.keys[:0]
	for k := 1; k < x.fanout; k++ {
		child := pos + k*stride
		if child >= p {
			break
		}
		keys = append(keys, levelKey(step, lvl, child))
	}
	st.keys = keys
	if len(keys) > 0 {
		clk.AdvanceTo(readyAt)
		st.vals = x.env.Obj.GetMultiViewInto(clk, x.env.Bucket, keys, st.vals)
		x.classB.Add(int64(len(keys)))
		for i, buf := range st.vals {
			if buf == nil {
				return fmt.Errorf("missing partial sum %s", keys[i])
			}
		}
		sum, folded, err := st.fold.FoldEncoded(st.red[:0], st.run, st.vals)
		if err != nil {
			return err
		}
		st.run, st.red = sum, st.run
		x.env.Charge(clk, worker, 2*float64(folded))
	}
	if pos == 0 && round == x.Rounds(p)-1 {
		x.env.Obj.Put(clk, x.env.Bucket, rootKey(step), st.run)
		x.classA.Add(1)
	}
	x.cRounds.Inc()
	return nil
}

// Pull implements Exchange: rank 0 applies its folded total locally;
// everyone else waits for the republished total and streams it in. Both
// then subtract their own contribution.
func (x *TreeReduce) Pull(p *PullCtx) (int, error) {
	np := len(p.ActiveIDs)
	if np <= 1 {
		x.cPulls.Inc()
		return 0, nil
	}
	pos := posOf(p.ActiveIDs, p.Worker)
	if pos < 0 {
		return 0, fmt.Errorf("worker %d not in the active set", p.Worker)
	}
	var applied int
	if pos == 0 {
		var err error
		if applied, err = sparse.AddEncoded(p.Params, x.state(p.Worker).run); err != nil {
			return 0, err
		}
	} else {
		p.Clock.AdvanceTo(p.ReadyAt)
		keys := append(p.Keys[:0], rootKey(p.Step))
		p.Keys = keys
		p.Vals = x.env.Obj.GetMultiViewInto(p.Clock, x.env.Bucket, keys, p.Vals)
		x.classB.Add(1)
		buf := p.Vals[0]
		if buf == nil {
			return 0, fmt.Errorf("missing reduced total %s", keys[0])
		}
		var err error
		if applied, err = sparse.AddEncoded(p.Params, buf); err != nil {
			return 0, err
		}
	}
	x.subtractOwn(p)
	x.cPulls.Inc()
	return applied, nil
}
