package exchange

import (
	"fmt"
	"sync/atomic"
	"time"

	"mlless/internal/allreduce"
	"mlless/internal/cost"
	"mlless/internal/sparse"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// TreeReduce folds updates through a fan-in tree over object storage:
// ranks are grouped by the fan-out, each group's members upload their
// partial sums and the group leader folds them, level by level, until
// rank 0 holds the total and republishes it once. Request traffic is
// O(P) per step at the price of O(log P) serial storage round trips.
// The closed-form counterpart of its charged path is
// allreduce.TreeTime, built from the same ReduceTime kernel as the
// serverful baseline's models. The KV tier stays out of the data path
// entirely: updates move through the object store, whose requests are
// billed per call rather than through a provisioned VM.
type TreeReduce struct {
	env    Env
	fanout int
	ws     []*workerState

	cPublishes, cPulls, cRounds *trace.Counter
	// COS bills PUT/LIST (class A) an order of magnitude above
	// GET (class B); DELETE is free. The counts feed BillInto.
	classA, classB atomic.Int64
}

// workerState is one rank's reduction scratch. It persists across
// steps (and across the worker's container relaunches — the exchange
// models durable per-rank state) so the steady-state tree step stops
// allocating once buffers reach their high-water marks. The partial
// sum stays encoded and folds runs through a dense scratch. Only run
// is ever stored (a member uploads it and folds no more that step), so
// the fold may always write red.
type workerState struct {
	run  []byte             // this rank's encoded partial sum
	red  []byte             // fold output, swapped with run
	fold sparse.FoldScratch // dense fold scratch
	keys []string
	vals [][]byte
}

func newTreeReduce(env Env) *TreeReduce {
	fanout := env.Fanout
	if fanout == 0 {
		fanout = DefaultTreeFanout
	}
	ws := make([]*workerState, env.Workers)
	for i := range ws {
		ws[i] = &workerState{}
	}
	return &TreeReduce{
		env:        env,
		fanout:     fanout,
		ws:         ws,
		cPublishes: env.Reg.Counter("xchg.publishes"),
		cPulls:     env.Reg.Counter("xchg.pulls"),
		cRounds:    env.Reg.Counter("xchg.reduce_rounds"),
	}
}

func (x *TreeReduce) state(worker int) *workerState {
	for worker >= len(x.ws) {
		x.ws = append(x.ws, &workerState{})
	}
	return x.ws[worker]
}

// Name implements Exchange.
func (x *TreeReduce) Name() string { return KindTree }

// Collective implements Exchange.
func (x *TreeReduce) Collective() bool { return true }

// UpdateKey implements Exchange. The tree keeps the engine's historical
// key layout as the update's protocol identity — it is what
// announcements and diagnostics name — even though payload bytes travel
// through the object-store bucket instead.
func (x *TreeReduce) UpdateKey(step, worker int) string {
	return updateKey(x.env.NS, step, worker)
}

// Publish implements Exchange: no storage traffic yet — the update is
// encoded straight into the worker's partial sum, which the fan-in
// rounds store as it stands. The last step's Expire has deleted every
// object that held run.
func (x *TreeReduce) Publish(clk *vclock.Clock, worker, step int, sig *sparse.Vector, ids []int, _ []byte) ([]byte, error) {
	st := x.state(worker)
	st.run = sig.EncodeTo(st.run[:0])
	x.cPublishes.Inc()
	return st.run, nil
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
// then subtract their own contribution: the worker already applied its
// full local update at compute time, so leaving its significant part in
// the total would double-count it.
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
	p.Params.AddScaledSparse(p.OwnSig, -1)
	x.env.Charge(p.Clock, p.Worker, 2*float64(p.OwnSig.Len()))
	x.cPulls.Inc()
	return applied, nil
}

// PullKeys implements Exchange; job validation restricts the tree to
// the lock-step schedule, which never calls it.
func (x *TreeReduce) PullKeys(*vclock.Clock, []string, [][]byte, sparse.Dense) ([][]byte, int, error) {
	panic("exchange: PullKeys on the tree strategy")
}

// Expire implements Exchange: list-and-delete the step's objects. One
// LIST is class A; deletes are free.
func (x *TreeReduce) Expire(clk *vclock.Clock, step int, _ []int) {
	prefix := fmt.Sprintf("s%d/", step)
	x.classA.Add(1)
	for _, k := range x.env.Obj.List(clk, x.env.Bucket, prefix) {
		x.env.Obj.Delete(clk, x.env.Bucket, k)
	}
}

// Teardown implements Exchange: drop the job-private bucket.
func (x *TreeReduce) Teardown() {
	x.env.Obj.DeleteBucket(x.env.Bucket)
}

// BillInto implements Exchange: charge the tree's object-store request
// traffic by class.
func (x *TreeReduce) BillInto(m *cost.Meter) {
	if a := x.classA.Load(); a > 0 {
		m.AddRequests("cos-class-a-requests", a, cost.PriceCOSClassARequest)
	}
	if b := x.classB.Load(); b > 0 {
		m.AddRequests("cos-class-b-requests", b, cost.PriceCOSClassBRequest)
	}
}

// Object keys inside the job's bucket: per-level partial sums and the
// root total, under the s<step>/ prefix Expire lists.
func levelKey(step, level, pos int) string { return fmt.Sprintf("s%d/l%d/%d", step, level, pos) }
func rootKey(step int) string              { return fmt.Sprintf("s%d/root", step) }
