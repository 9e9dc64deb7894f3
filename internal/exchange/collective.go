package exchange

import (
	"fmt"
	"sync/atomic"

	"mlless/internal/cost"
	"mlless/internal/sparse"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// collectiveBase is the machinery the storage-mediated strategies
// share: per-worker reduction state, object-store request accounting,
// step expiry and bucket teardown. Both collectives keep the KV tier
// out of the data path entirely — updates move through the object
// store, whose requests are billed per call rather than through a
// provisioned VM.
type collectiveBase struct {
	env Env
	ws  []*workerState

	cPublishes, cPulls, cRounds *trace.Counter
	// COS bills PUT/LIST (class A) an order of magnitude above
	// GET (class B); DELETE is free. The counts feed BillInto.
	classA, classB atomic.Int64
}

// workerState is one worker's reduction scratch. It persists across
// steps (and across the worker's container relaunches — the exchange
// models durable per-rank state) so the steady-state collective path
// stops allocating once buffers reach their high-water marks. Scatter
// folds its chunk into the Vector accumulator; the tree keeps its
// partial sum encoded and folds runs through a dense scratch.
type workerState struct {
	acc   *sparse.Vector     // scatter: own-chunk partial-sum accumulator
	own   []byte             // scatter: encoded own-chunk contribution
	red   []byte             // scatter: encoded reduced chunk; tree: fold output
	split []byte             // scatter: chunk-split staging buffer
	run   []byte             // tree: this rank's encoded partial sum
	fold  sparse.FoldScratch // tree: dense fold scratch
	keys  []string
	vals  [][]byte
}

func newCollectiveBase(env Env) collectiveBase {
	ws := make([]*workerState, env.Workers)
	for i := range ws {
		ws[i] = &workerState{acc: sparse.New()}
	}
	return collectiveBase{
		env:        env,
		ws:         ws,
		cPublishes: env.Reg.Counter("xchg.publishes"),
		cPulls:     env.Reg.Counter("xchg.pulls"),
		cRounds:    env.Reg.Counter("xchg.reduce_rounds"),
	}
}

func (c *collectiveBase) state(worker int) *workerState {
	for worker >= len(c.ws) {
		c.ws = append(c.ws, &workerState{acc: sparse.New()})
	}
	return c.ws[worker]
}

// Collective implements Exchange.
func (c *collectiveBase) Collective() bool { return true }

// UpdateKey implements Exchange. The collectives keep the engine's
// historical key layout as the update's protocol identity — it is what
// announcements and diagnostics name — even though payload bytes travel
// through the object-store bucket instead.
func (c *collectiveBase) UpdateKey(step, worker int) string {
	return fmt.Sprintf("%s/upd/%d/%d", c.env.NS, step, worker)
}

// PullKeys implements Exchange; job validation restricts collectives to
// the lock-step schedule, which never calls it.
func (c *collectiveBase) PullKeys(*vclock.Clock, []string, [][]byte, sparse.Dense) ([][]byte, int, error) {
	panic("exchange: PullKeys on a collective strategy")
}

// Expire implements Exchange: list-and-delete the step's objects. One
// LIST is class A; deletes are free.
func (c *collectiveBase) Expire(clk *vclock.Clock, step int, _ []int) {
	prefix := fmt.Sprintf("s%d/", step)
	c.classA.Add(1)
	for _, k := range c.env.Obj.List(clk, c.env.Bucket, prefix) {
		c.env.Obj.Delete(clk, c.env.Bucket, k)
	}
}

// Teardown implements Exchange: drop the job-private bucket.
func (c *collectiveBase) Teardown() {
	c.env.Obj.DeleteBucket(c.env.Bucket)
}

// BillInto implements Exchange: charge the strategy's object-store
// request traffic by class.
func (c *collectiveBase) BillInto(m *cost.Meter) {
	if a := c.classA.Load(); a > 0 {
		m.AddRequests("cos-class-a-requests", a, cost.PriceCOSClassARequest)
	}
	if b := c.classB.Load(); b > 0 {
		m.AddRequests("cos-class-b-requests", b, cost.PriceCOSClassBRequest)
	}
}

// subtractOwn removes the worker's own published update from the
// applied reduced total: the worker already applied its full local
// update at compute time, so leaving its significant part in the total
// would double-count it.
func (c *collectiveBase) subtractOwn(p *PullCtx) {
	p.Params.AddScaledSparse(p.OwnSig, -1)
	c.env.Charge(p.Clock, p.Worker, 2*float64(p.OwnSig.Len()))
}

// Object keys inside the job's bucket. Scatter: per-chunk contributions
// and reduced chunks; tree: per-level partial sums and the root total.
// All share the s<step>/ prefix Expire lists.
func contribKey(step, chunk, pos int) string { return fmt.Sprintf("s%d/c%d/w%d", step, chunk, pos) }
func reducedKey(step, chunk int) string      { return fmt.Sprintf("s%d/r%d", step, chunk) }
func levelKey(step, level, pos int) string   { return fmt.Sprintf("s%d/l%d/%d", step, level, pos) }
func rootKey(step int) string                { return fmt.Sprintf("s%d/root", step) }
