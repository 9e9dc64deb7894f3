package exchange

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"mlless/internal/cost"
	"mlless/internal/sparse"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// ParamServer is the paper's exchange: every worker publishes its
// significant update to the low-latency KV tier and every peer pulls it
// from there — the MLLess design's answer to functions that cannot talk
// to each other. The implementation is the engine's historical publish,
// pull and expiry code moved behind the Exchange interface, operation
// for operation: traces and loss histories are byte- and bit-identical
// to the pre-extraction engine, which the determinism suites pin.
type ParamServer struct {
	env                Env
	cPublishes, cPulls *trace.Counter
	minMerge           int // the crossover, mergeMinRuns outside tests

	// mu guards win. Keying a new window takes it exclusively; replicas
	// copy its keys, build its run and walk it holding mu shared, so a
	// window never changes under a replica using it.
	mu  sync.RWMutex
	win pullWindow

	// payloads[w] is worker w's encoded updates. The KV store keeps
	// each until Expire deletes its key and frees it for w's next
	// Publish. Only w's Publish and Expire, never concurrent, touch it.
	payloads [][]payload
}

// payload is one encoded update and the step it was published at, or 0
// once expired.
type payload struct {
	step int
	buf  []byte
}

func newParamServer(env Env) *ParamServer {
	return &ParamServer{
		env:        env,
		cPublishes: env.Reg.Counter("xchg.publishes"),
		cPulls:     env.Reg.Counter("xchg.pulls"),
		minMerge:   mergeMinRuns,
		payloads:   make([][]payload, env.Workers),
	}
}

// Collective implements Exchange: the parameter server needs no
// reduction rounds, and the engine keeps its step loop untouched.
func (x *ParamServer) Collective() bool { return false }

// UpdateKey implements Exchange with the engine's historical update-key
// layout.
func (x *ParamServer) UpdateKey(step, worker int) string {
	return updateKey(x.env.NS, step, worker)
}

// Publish implements Exchange: encode into a free buffer of the worker
// and hand it to the KV store under the update key.
func (x *ParamServer) Publish(clk *vclock.Clock, worker, step int, sig *sparse.Vector, _ []int, _ []byte) ([]byte, error) {
	ps := x.payloads[worker]
	i := slices.IndexFunc(ps, func(p payload) bool { return p.step == 0 })
	if i < 0 {
		i, ps = len(ps), append(ps, payload{})
		x.payloads[worker] = ps
	}
	ps[i].step, ps[i].buf = step, sig.EncodeTo(ps[i].buf[:0])
	x.env.KV.Set(clk, x.UpdateKey(step, worker), ps[i].buf)
	x.cPublishes.Inc()
	return ps[i].buf, nil
}

// Rounds implements Exchange.
func (x *ParamServer) Rounds(int) int { return 0 }

// RunRound implements Exchange; the engine never calls it for
// non-collectives.
func (x *ParamServer) RunRound(*vclock.Clock, int, int, int, []int, time.Duration) error {
	panic("exchange: RunRound on the parameter server")
}

// mergeMinRuns is the pull's run-count crossover: a replica applying
// at least this many peer payloads walks the window's shared merged run
// instead of applying each payload in turn. Below it the dense replica
// stays cache-resident across the per-payload passes and the merge's
// build is never amortised (BenchmarkParamServerPull, DESIGN.md §10).
const mergeMinRuns = 16

// Pull implements Exchange: batch-read the window's peer update keys in
// pool order, then apply them. Every replica pays its own charged read;
// the host work of decoding is shared. Above the crossover the window's
// payloads are merged into one coordinate-sorted run, built chunk by
// chunk by the replicas that walk it, and every replica walks it,
// skipping its own entries; the run keeps each coordinate's payloads
// in key order, so the sums are bit-identical to applying the payloads
// one by one. A replica whose views are not the run's applies them.
func (x *ParamServer) Pull(p *PullCtx) (int, error) {
	x.peerKeys(p)
	p.Vals = x.env.KV.MGetViewInto(p.Clock, p.Keys, p.Vals)
	for i, buf := range p.Vals {
		if buf == nil {
			return 0, fmt.Errorf("missing peer update %s (announced: %s)", p.Keys[i], AnnouncedSet(x.UpdateKey, p.Announced))
		}
	}
	applied := -1
	if len(p.Vals) >= x.minMerge {
		x.mu.RLock()
		if w := &x.win; w.serves(p) {
			w.run.Build()
			applied = w.apply(p.Params, p.Worker)
		}
		x.mu.RUnlock()
	}
	if applied < 0 {
		var err error
		if applied, err = addEach(p.Params, p.Vals); err != nil {
			return 0, err
		}
	}
	x.cPulls.Inc()
	return applied, nil
}

// addEach applies encoded payloads to d one after another: the pull
// below the crossover, the async pull, and a replica the merged run
// does not serve.
func addEach(d sparse.Dense, bufs [][]byte) (int, error) {
	applied := 0
	for _, buf := range bufs {
		n, err := sparse.AddEncoded(d, buf)
		if err != nil {
			return 0, err
		}
		applied += n
	}
	return applied, nil
}

// peerKeys fills p.Keys with the window's keys minus p's own, keying
// the shared window first if p is the first to pull it.
func (x *ParamServer) peerKeys(p *PullCtx) {
	w := &x.win
	x.mu.RLock()
	if w.is(p) {
		p.Keys = w.peerKeys(p.Keys[:0], p.Worker)
		x.mu.RUnlock()
		return
	}
	x.mu.RUnlock()
	x.mu.Lock()
	if !w.is(p) {
		x.rekey(p)
	}
	p.Keys = w.peerKeys(p.Keys[:0], p.Worker)
	x.mu.Unlock()
}

// PullKeys implements Exchange: the async schedule's pull, over an
// announcement-resolved key list.
func (x *ParamServer) PullKeys(clk *vclock.Clock, keys []string, vals [][]byte, params sparse.Dense) ([][]byte, int, error) {
	vals = x.env.KV.MGetViewInto(clk, keys, vals)
	for i, buf := range vals {
		if buf == nil {
			return vals, 0, fmt.Errorf("missing announced update %s", keys[i])
		}
	}
	applied, err := addEach(params, vals)
	if err != nil {
		return vals, 0, err
	}
	x.cPulls.Inc()
	return vals, applied, nil
}

// Expire implements Exchange: delete each worker's update key for the
// step, in pool order, on the janitor clock, freeing its payload.
func (x *ParamServer) Expire(clk *vclock.Clock, step int, ids []int) {
	for _, id := range ids {
		x.env.KV.Delete(clk, x.UpdateKey(step, id))
		for i := range x.payloads[id] {
			if x.payloads[id][i].step == step {
				x.payloads[id][i].step = 0
			}
		}
	}
}

// Teardown implements Exchange: it releases the pull window. The KV
// tier is job-shared, and expiry already cleaned the namespace.
func (x *ParamServer) Teardown() {
	x.mu.Lock()
	x.win = pullWindow{}
	x.mu.Unlock()
}

// BillInto implements Exchange: KV traffic is covered by the Redis VM's
// hourly price, which the engine already meters.
func (x *ParamServer) BillInto(*cost.Meter) {}

// pullWindow is the lock-step pull window (FromStep, Step] over
// ActiveIDs that every replica of one sync point shares: its update
// keys, formatted once, and the merged run of its payloads, which the
// replicas that walk it build together. One window is live at a time;
// its buffers are reused by the next. The zero window is the empty
// window (0, 0] over no ids, which has no keys to format.
type pullWindow struct {
	from, step int
	ids        []int
	// keys holds the window's update keys peer-major, step-minor, the
	// order of the charged reads and of the run's per-coordinate sums:
	// ids[i]'s block is keys[i*span : (i+1)*span].
	keys []string
	span int

	// ok is set once the run is ready to build: every payload decoded
	// and ascended. dim is the model size of the replica that keyed the
	// window, which the run spans. bufs are the payloads it is built
	// from (nil for a key missing at the time, whose block contributes
	// nothing) and srcs their owners; counts[i] is ids[i]'s entry count,
	// indices past the model included.
	ok     bool
	dim    int
	bufs   [][]byte
	srcs   []uint32
	counts []int
	total  int
	run    sparse.MergedRun
}

// is reports whether the window is p's, comparing ids by value.
func (w *pullWindow) is(p *PullCtx) bool {
	return w.from == p.FromStep && w.step == p.Step && slices.Equal(w.ids, p.ActiveIDs)
}

// rekey makes the window p's and formats its keys. Above the crossover
// it also peeks the window's payloads (uncharged: each replica pays for
// its own read) and readies the run for the replicas to build.
func (x *ParamServer) rekey(p *PullCtx) {
	w := &x.win
	w.from, w.step, w.ok = p.FromStep, p.Step, false
	w.ids = append(w.ids[:0], p.ActiveIDs...)
	w.span = max(p.Step-p.FromStep, 0)
	w.keys, w.srcs = w.keys[:0], w.srcs[:0]
	for _, id := range w.ids {
		for s := p.FromStep + 1; s <= p.Step; s++ {
			w.keys = append(w.keys, x.UpdateKey(s, id))
			w.srcs = append(w.srcs, uint32(id))
		}
	}
	if len(w.keys)-w.span < x.minMerge {
		return
	}
	w.bufs = x.env.KV.PeekViewsInto(w.keys, w.bufs)
	w.dim = len(p.Params)
	if w.ok = w.run.Reset(w.dim, w.srcs, w.bufs); !w.ok {
		return // a malformed or unordered payload: replicas apply their views
	}
	w.counts = slices.Grow(w.counts[:0], len(w.ids))[:len(w.ids)]
	clear(w.counts)
	w.total = 0
	for i := range w.ids {
		for _, buf := range w.bufs[i*w.span : (i+1)*w.span] {
			if buf != nil {
				w.counts[i] += int(binary.LittleEndian.Uint32(buf))
			}
		}
		w.total += w.counts[i]
	}
}

// peerKeys appends every key outside worker's block to dst.
func (w *pullWindow) peerKeys(dst []string, worker int) []string {
	for i, id := range w.ids {
		if id != worker {
			dst = append(dst, w.keys[i*w.span:(i+1)*w.span]...)
		}
	}
	return dst
}

// serves reports whether the run can stand in for p's views: it was
// readied without error for p's window and model size, from the very
// payloads p read.
// No payload of the window is rewritten before the window expires, so
// equal views mean equal bytes.
func (w *pullWindow) serves(p *PullCtx) bool {
	if !w.ok || !w.is(p) || len(p.Params) != w.dim {
		return false
	}
	j := 0
	for i, id := range w.ids {
		if id == p.Worker {
			continue
		}
		for _, buf := range w.bufs[i*w.span : (i+1)*w.span] {
			if v := p.Vals[j]; len(v) != len(buf) || len(v) > 0 && &v[0] != &buf[0] {
				return false
			}
			j++
		}
	}
	return true
}

// apply walks the run into d for worker and returns the entry count of
// every payload but its own.
func (w *pullWindow) apply(d sparse.Dense, worker int) int {
	w.run.AddExcept(d, uint32(worker))
	if i := posOf(w.ids, worker); i >= 0 {
		return w.total - w.counts[i]
	}
	return w.total
}
