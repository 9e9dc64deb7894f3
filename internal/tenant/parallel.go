// The fleet engine (DESIGN.md §15). Virtual concurrency — jobs whose
// windows [admit, complete) overlap in virtual time — becomes wall-clock
// concurrency without perturbing a single byte of output.
//
// The design splits the fleet into a decision pass and an execution
// pool:
//
//   - runPass replays the whole control loop (arrivals, releases,
//     fair-share admission, scale-in requests) as a cheap pure function
//     over ledgers — reservation counts, warm-container counts, served
//     function-time — asking a resolver for each admission's outcome.
//     When the resolver has the exact result the pass replays it; when
//     it does not, the pass substitutes a deterministic estimate and is
//     marked inexact from that admission on. The first admission
//     resolved from fully-exact state (the frontier) is always a true
//     execution context: everything that could influence it has been
//     replayed exactly.
//
//   - The executor runs admissions as sandboxed simulations on a pool
//     of HostPar goroutines. Each execution gets private copies of
//     every mutable substrate — KV tier, broker, FaaS platform with the
//     fleet's quotas and a warm pool preset from the ledger — plus a
//     fork of the shared object store: reads fall through to the staged
//     datasets, writes and deletes (a collective's xchg-<id> bucket)
//     stay in the fork. The job runs under its reserved cluster job
//     number (Cluster.ReserveJobIDs), so namespaces are a function of
//     admission order alone. core.Run installs the job's tracer and
//     fault injector on whatever substrates it is handed, so both land
//     on the sandbox's, never the shared ones.
//
// The loop alternates: run a pass; if every admission resolved exactly,
// fold and return; otherwise submit the pass's contexts to the pool and
// block until the frontier's execution lands. Each wait retires at
// least one admission, so the loop terminates after at most one pass
// per arrival — far fewer with memoization, which resolves every
// arrival of a workload template from one canonical execution,
// translated to the admission's start time and namespace. Translation
// is exact for the jobs memoable admits: every virtual duration in such
// a run is independent of absolute start time, and key or name lengths
// never enter link charging. Fault decisions are pure functions of
// (seed, operation, key, virtual time) and a tracer records absolute
// times and names into the caller's buffer, so faulted and traced jobs
// — and collectives, whose translation nobody has pinned — take exact
// per-admission keys instead and execute once, when certain.
//
// Why the result is the same at every HostPar value: the final pass
// replays the control loop purely from cached outcomes, and each outcome
// is a deterministic function of its execution context alone — the
// sandbox reproduces exactly the substrate state the job would observe
// mid-fleet (quota rejections cannot fire for an admission that passed
// the fits check, checkpoints and update keys are job-namespaced and
// deleted by the run itself, and the warm-pool ledger preset makes every
// warm/cold decision match). Host scheduling can change which
// speculative executions run, never what any execution returns, so the
// all-exact fixed point is unique: it is the trajectory of executing
// every admission inline, in order.
//
// What the fold writes back: the event log and job records from the
// final pass; every execution's billed runs
// (translated names, termination order, admission-ordered) absorbed
// into the shared platform so BillTo and BilledFunctionSeconds cover the
// fleet; every execution's service counters summed into the shared
// registry; the final warm-pool ledger. Sandbox-private broker queue
// declarations and empty per-job substrate state are not replicated — a
// completed job leaves none behind.
package tenant

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/core"
	"mlless/internal/cost"
	"mlless/internal/exchange"
	"mlless/internal/faas"
	"mlless/internal/kvstore"
	"mlless/internal/msgqueue"
	"mlless/internal/trace"
)

// execCtx is the complete execution context of one admission: every
// fleet-side input that can influence the job's simulated outcome.
type execCtx struct {
	idx      int // admission index within the pass
	arrSeq   int // index into the sorted arrival schedule
	num      int // reserved cluster-wide job number
	tenant   string
	workload string
	tmplKey  string
	startAt  time.Duration
	give     int  // contention-triggered shrink request (0 = none)
	warm     int  // warm containers preset from the fleet ledger
	demand   int  // workers + supervisor
	certain  bool // true iff every earlier admission resolved exactly
	job      core.Job
}

// id is the namespace the job runs under.
func (c execCtx) id() string { return core.JobNamespace(c.tenant, c.num) }

// stamped returns the arrival's job with the control-plane spec fields
// filled in for this admission.
func (c execCtx) stamped() core.Job {
	job := c.job
	job.Spec.Tenant = c.tenant
	job.Spec.StartAt = c.startAt
	if c.give > 0 {
		job.Spec.Shrink = []core.ShrinkDirective{{At: 0, Workers: c.give}}
	}
	return job
}

// memoable reports whether the outcome is a pure function of
// (template, give, warm) alone — i.e. translation across start times,
// tenants and job numbers is exact. The auto-tuner's epoch gate and the
// wall-clock stop criterion compare absolute virtual times, fault draws
// are keyed on operation names and absolute times, and a tracer's events
// carry both — any of those pins the outcome to its admission.
// Collectives stay exact because no test pins their translation.
func (c execCtx) memoable() bool {
	return c.tmplKey != "" && !c.job.Spec.AutoTune && c.job.Spec.MaxWallClock == 0 &&
		c.job.Trace == nil && !c.job.Spec.Faults.Enabled() && !exchange.IsCollective(c.job.Spec.Exchange)
}

// key identifies the execution's result cache slot: the memo key for
// template-stamped jobs, the full exact context otherwise.
func (c execCtx) key() string {
	if c.memoable() {
		return fmt.Sprintf("m\x00%s\x00g%d w%d", c.tmplKey, c.give, c.warm)
	}
	return fmt.Sprintf("x\x00%d %d %s %d %d %d", c.arrSeq, c.num, c.tenant, c.startAt, c.give, c.warm)
}

// outcome is everything the control plane consumes from one execution.
type outcome struct {
	res       *core.Result
	finalWarm int              // sandbox warm pool after the run
	billed    []faas.BilledRun // translated into the ctx's namespace
	counters  []trace.Metric   // sandbox registry snapshot
}

// resolver returns the outcome for an execution context and whether it
// is exact. A non-nil error aborts the fleet; it is only returned for
// certain contexts whose execution genuinely failed.
type resolver func(execCtx) (out *outcome, exact bool, err error)

// pass is one replay of the fleet control loop over pure ledgers.
type pass struct {
	exact    bool
	err      error
	frontier *execCtx
	ctxs     []execCtx
	outs     []*outcome

	events []Event
	jobs   []JobRecord
	served map[string]time.Duration // per-tenant billed function time

	inUse      map[string]int
	totalInUse int
	warm       int
	releases   []release
	waitq      []*waiting
	now        time.Duration
	seq        int
}

func (p *pass) event(at time.Duration, kind, tenant, job, detail string) {
	p.events = append(p.events, Event{At: at, Kind: kind, Tenant: tenant, Job: job, Detail: detail, seq: p.seq})
	p.seq++
}

func (p *pass) release(at time.Duration, tenant, job string, n int) {
	if n <= 0 {
		return
	}
	p.releases = append(p.releases, release{at: at, tenant: tenant, job: job, n: n, seq: p.seq})
	p.seq++
}

// applyReleases returns every reservation due by now to the ledger,
// oldest first; same-instant ties resolve by (tenant, job, seq), so
// eviction releases of one job stay ordered and the instant's net
// effect is a pure function of fleet state.
func (p *pass) applyReleases() {
	sort.SliceStable(p.releases, releaseLess(p.releases))
	n := 0
	for _, r := range p.releases {
		if r.at > p.now {
			p.releases[n] = r
			n++
			continue
		}
		p.inUse[r.tenant] -= r.n
		p.totalInUse -= r.n
	}
	p.releases = p.releases[:n]
}

// nextInstant returns the earliest future virtual instant with work to
// do: the next submission or the next reservation release.
func (p *pass) nextInstant(arrivals []Arrival, ai int) (time.Duration, bool) {
	next := time.Duration(-1)
	if ai < len(arrivals) {
		next = arrivals[ai].At
	}
	for _, r := range p.releases {
		if next < 0 || r.at < next {
			next = r.at
		}
	}
	if next < 0 {
		return 0, false
	}
	return next, true
}

// fits reports whether demand slots for the tenant are free under both
// the tenant quota and the platform cap, reservations included.
func (p *pass) fits(f *fleet, w *waiting) bool {
	if q := f.quota[w.arr.Tenant]; q > 0 && p.inUse[w.arr.Tenant]+w.demand > q {
		return false
	}
	if cap := f.cl.Platform.Config().MaxConcurrent; cap > 0 && p.totalInUse+w.demand > cap {
		return false
	}
	return true
}

// pickAdmissible removes and returns the fair-share choice among queued
// jobs that fit right now, or nil. Fairness is min served billed
// function-time per tenant (the platform's own currency), FIFO within
// and across equally-served tenants.
func (p *pass) pickAdmissible(f *fleet) *waiting {
	best := -1
	for i, w := range p.waitq {
		if !p.fits(f, w) {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := p.waitq[best]
		if p.served[w.arr.Tenant] < p.served[b.arr.Tenant] ||
			(p.served[w.arr.Tenant] == p.served[b.arr.Tenant] && w.seq < b.seq) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	w := p.waitq[best]
	p.waitq = append(p.waitq[:best], p.waitq[best+1:]...)
	return w
}

// runPass replays the fleet once against the resolver. It never touches
// shared state: everything it produces lives in the returned pass.
func (f *fleet) runPass(arrivals []Arrival, base, warm0 int, resolve resolver) *pass {
	p := &pass{
		exact:  true,
		warm:   warm0,
		served: make(map[string]time.Duration, len(f.quota)),
		inUse:  make(map[string]int, len(f.quota)),
	}
	for name := range f.quota {
		p.served[name] = 0
	}
	ai := 0
	for {
		// Ingest every submission due by now, then apply due releases,
		// then admit whatever fits — releases before admissions, so a
		// slot freed at t is usable at t.
		for ai < len(arrivals) && arrivals[ai].At <= p.now {
			a := arrivals[ai]
			w := &waiting{arr: a, seq: ai, demand: a.Job.Spec.Workers + 1}
			p.waitq = append(p.waitq, w)
			p.event(a.At, "arrive", a.Tenant, a.Workload, fmt.Sprintf("demand=%d", w.demand))
			ai++
		}
		p.applyReleases()
		for {
			w := p.pickAdmissible(f)
			if w == nil {
				break
			}
			if !f.admitPass(p, w, base, resolve) {
				return p
			}
		}
		next, ok := p.nextInstant(arrivals, ai)
		if !ok {
			if len(p.waitq) > 0 {
				// Cannot happen after the newFleet demand check, but
				// guard against it rather than spin forever.
				p.err = fmt.Errorf("%w: %d jobs stuck in queue at t=%v",
					ErrNeverFits, len(p.waitq), p.now)
			}
			return p
		}
		p.now = next
	}
}

// admitPass replays one admission at the pass's current instant: its
// events, its reservation and the releases that drain it. It reports
// false when the pass must abort.
func (f *fleet) admitPass(p *pass, w *waiting, base int, resolve resolver) bool {
	spec := w.arr.Job.Spec

	// Contention-triggered scale-in: others are waiting, so ask this
	// job to hand back workers once past its knee — the same guardrail
	// the §4.2 auto-tuner uses, so convergence is not stalled. The
	// request is due immediately (At: 0 is before any barrier) and
	// bounded by the queue depth and the tuner's MinWorkers floor
	// (Sched.MinWorkers, or the engine's own Workers/4 default).
	give := 0
	if !f.cfg.NoScaleIn && len(p.waitq) > 0 && spec.Sync != consistency.Async {
		floor := spec.Sched.MinWorkers
		if floor <= 0 {
			floor = spec.Workers / 4
			if floor < 1 {
				floor = 1
			}
		}
		if g := spec.Workers - floor; g > 0 {
			if g > len(p.waitq) {
				g = len(p.waitq)
			}
			give = g
		}
	}
	warm := p.warm
	if warm > w.demand {
		warm = w.demand
	}
	ctx := execCtx{
		idx: len(p.ctxs), arrSeq: w.seq, num: base + len(p.ctxs),
		tenant: w.arr.Tenant, workload: w.arr.Workload, tmplKey: w.arr.TemplateKey,
		startAt: p.now, give: give, warm: warm, demand: w.demand,
		certain: p.exact, job: w.arr.Job,
	}
	out, exact, err := resolve(ctx)
	if err != nil {
		p.err = fmt.Errorf("tenant: job %q/%q admitted at %v: %w", ctx.tenant, ctx.workload, p.now, err)
		return false
	}
	if !exact && p.exact {
		p.exact = false
		c := ctx
		p.frontier = &c
	}

	res := out.res
	wait := p.now - w.arr.At
	p.event(p.now, "admit", ctx.tenant, res.ID,
		fmt.Sprintf("workload=%s demand=%d waited=%.3fs", ctx.workload, w.demand, wait.Seconds()))
	if give > 0 {
		p.event(p.now, "shrink-request", ctx.tenant, res.ID, fmt.Sprintf("give=%d", give))
	}
	// The job holds its demand over its virtual window [now, complete),
	// drained early by its scale-in evictions.
	p.inUse[ctx.tenant] += w.demand
	p.totalInUse += w.demand
	complete := p.now + res.ExecTime
	for _, rm := range res.Removals {
		p.release(rm.Time, ctx.tenant, res.ID, 1)
		p.event(rm.Time, "scale-in", ctx.tenant, res.ID,
			fmt.Sprintf("worker=%d left=%d", rm.Worker, rm.WorkersLeft))
	}
	p.release(complete, ctx.tenant, res.ID, w.demand-len(res.Removals))
	p.event(complete, "complete", ctx.tenant, res.ID,
		fmt.Sprintf("workload=%s steps=%d converged=%v loss=%.6f", ctx.workload, res.Steps, res.Converged, res.FinalLoss))

	funcSecs := functionTime(res)
	p.served[ctx.tenant] += funcSecs
	p.jobs = append(p.jobs, JobRecord{
		ID: res.ID, Tenant: ctx.tenant, Workload: ctx.workload,
		ArriveAt: w.arr.At, AdmitAt: p.now, CompleteAt: complete,
		Wait: wait, Exec: res.ExecTime,
		Workers: spec.Workers, Shrunk: len(res.Removals),
		FunctionTime: funcSecs, FunctionDollars: functionDollars(res),
		Converged: res.Converged, FinalLoss: res.FinalLoss, Steps: res.Steps,
	})
	p.warm += out.finalWarm - ctx.warm
	p.ctxs = append(p.ctxs, ctx)
	p.outs = append(p.outs, out)
	return true
}

// hostPar resolves Config.HostPar to the pool width.
func (f *fleet) hostPar() int {
	if f.cfg.HostPar > 0 {
		return f.cfg.HostPar
	}
	return runtime.GOMAXPROCS(0)
}

// run is the fixed-point fleet loop: pass, execute, repeat until a pass
// resolves every admission exactly, then fold.
func (f *fleet) run() (*Report, error) {
	arrivals := append([]Arrival(nil), f.cfg.Arrivals...)
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].At < arrivals[j].At })
	if f.cl.Redis.NumShards() > 1 {
		// Job IDs prefix every Redis key and the sharded tier hashes the
		// full key, so renaming a job re-routes its keys across shards —
		// changing per-shard counters and MGet's max-over-shards charge.
		// Memoized outcomes therefore only translate on single-shard
		// fleets; multi-shard fleets keep exact per-admission keys.
		for i := range arrivals {
			arrivals[i].TemplateKey = ""
		}
	}
	base := f.cl.ReserveJobIDs(len(arrivals))
	warm0 := f.cl.Platform.WarmPool()
	ex := newExecutor(f, f.hostPar())
	defer ex.close()
	for {
		p := f.runPass(arrivals, base, warm0, ex.resolve)
		if p.err != nil {
			return nil, p.err
		}
		if p.exact {
			f.fold(p)
			return f.report(), nil
		}
		for _, ctx := range p.ctxs {
			ex.submit(ctx)
		}
		ex.await(p.frontier.key())
	}
}

// fold commits the final pass: control-plane log and records, translated
// bills in admission order, summed service counters, warm-pool ledger.
func (f *fleet) fold(p *pass) {
	f.events = p.events
	f.jobs = p.jobs
	for _, out := range p.outs {
		f.cl.Platform.AbsorbBilled(out.billed)
		for _, m := range out.counters {
			f.cl.Metrics.Counter(m.Name).Add(m.Value)
		}
	}
	f.cl.Platform.SetWarmPool(p.warm)
}

// sandboxRun simulates one admission on private substrates. The error
// is the engine's, unwrapped; admitPass adds the admission context.
func (f *fleet) sandboxRun(ctx execCtx) (*outcome, error) {
	reg := trace.NewRegistry()
	plat := faas.NewPlatformWithRegistry(f.cl.Platform.Config(), reg)
	for name, q := range f.quota {
		if q > 0 {
			plat.SetQuota(name, q)
		}
	}
	plat.SetWarmPool(ctx.warm)
	scl := &core.Cluster{
		Redis:    kvstore.NewShardedWithRegistry(f.cl.Redis.Link(), reg, f.cl.Redis.NumShards()),
		COS:      f.cl.COS.Fork(reg),
		Broker:   msgqueue.NewWithRegistry(f.cl.Broker.Link(), reg),
		Platform: plat,
		Compute:  f.cl.Compute,
		Metrics:  reg,
	}
	res, err := core.RunNumbered(scl, ctx.stamped(), ctx.num)
	if err != nil {
		return nil, err
	}
	return &outcome{
		res:       res,
		finalWarm: plat.WarmPool(),
		billed:    plat.BilledRuns(),
		counters:  reg.Snapshot(),
	}, nil
}

// rename maps one billing label from the canonical execution's
// namespace into the target's. Labels are "<id>" or "<id>/suffix";
// anything else (VM lines, request-class lines) passes through.
func rename(name, oldID, newID string) string {
	if name == oldID {
		return newID
	}
	if strings.HasPrefix(name, oldID+"/") {
		return newID + name[len(oldID):]
	}
	return name
}

// translateOutcome maps a finished execution from one context onto
// another of the same memo key: shift absolute times by the start-time
// delta and relabel the namespace. The bill total is recomputed in the
// renamed sort order, exactly as cost.Meter.Report would have summed it
// for a native run under the target namespace.
func translateOutcome(src *outcome, from, to execCtx) *outcome {
	dt := to.startAt - from.startAt
	oldID, newID := from.id(), to.id()

	r := *src.res
	r.ID = newID
	if len(src.res.History) > 0 {
		h := make([]core.LossPoint, len(src.res.History))
		copy(h, src.res.History)
		for i := range h {
			h[i].Time += dt
		}
		r.History = h
	}
	if len(src.res.Removals) > 0 {
		rms := make([]core.Removal, len(src.res.Removals))
		copy(rms, src.res.Removals)
		for i := range rms {
			rms[i].Time += dt
		}
		r.Removals = rms
	}
	comps := make([]cost.Component, len(src.res.Cost.Components))
	copy(comps, src.res.Cost.Components)
	for i := range comps {
		comps[i].Name = rename(comps[i].Name, oldID, newID)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].Name < comps[j].Name })
	total := 0.0
	for _, c := range comps {
		if c.Kind == "memo" {
			continue
		}
		total += c.Dollars
	}
	r.Cost = cost.Report{Components: comps, Total: total}

	billed := make([]faas.BilledRun, len(src.billed))
	copy(billed, src.billed)
	for i := range billed {
		billed[i].Name = rename(billed[i].Name, oldID, newID)
	}
	return &outcome{res: &r, finalWarm: src.finalWarm, billed: billed, counters: src.counters}
}

// entry is one execution's result slot.
type entry struct {
	ctx  execCtx
	done chan struct{}
	out  *outcome
	err  error
}

// executor runs sandboxed executions on a bounded goroutine pool and
// caches results by execution key.
type executor struct {
	f  *fleet
	mu sync.Mutex
	// cond signals queued work; guarded by mu.
	cond    *sync.Cond
	queue   []*entry
	closed  bool
	entries map[string]*entry
	canon   map[string]*entry // template key -> a finished canonical
	wg      sync.WaitGroup
}

func newExecutor(f *fleet, par int) *executor {
	if par < 1 {
		par = 1
	}
	ex := &executor{f: f, entries: make(map[string]*entry), canon: make(map[string]*entry)}
	ex.cond = sync.NewCond(&ex.mu)
	ex.wg.Add(par)
	for i := 0; i < par; i++ {
		go ex.work()
	}
	return ex
}

func (ex *executor) work() {
	defer ex.wg.Done()
	for {
		ex.mu.Lock()
		for len(ex.queue) == 0 && !ex.closed {
			ex.cond.Wait()
		}
		if ex.closed {
			// Abandon queued-but-unstarted work: it was speculative and
			// never touched shared state.
			ex.mu.Unlock()
			return
		}
		e := ex.queue[0]
		ex.queue = ex.queue[1:]
		ex.mu.Unlock()

		out, err := ex.f.sandboxRun(e.ctx)
		ex.mu.Lock()
		e.out, e.err = out, err
		if err == nil && e.ctx.memoable() {
			if _, ok := ex.canon[e.ctx.tmplKey]; !ok {
				ex.canon[e.ctx.tmplKey] = e
			}
		}
		ex.mu.Unlock()
		close(e.done)
	}
}

// submit enqueues an execution unless its key is already cached or
// running. Memoable contexts may run speculatively (their results are
// reusable at any start time); exact-keyed contexts only run once
// certain, so a misprediction can never waste a full training
// simulation on a key no final pass will ask for.
func (ex *executor) submit(ctx execCtx) {
	if !ctx.memoable() && !ctx.certain {
		return
	}
	key := ctx.key()
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if _, ok := ex.entries[key]; ok {
		return
	}
	e := &entry{ctx: ctx, done: make(chan struct{})}
	ex.entries[key] = e
	ex.queue = append(ex.queue, e)
	ex.cond.Signal()
}

// await blocks until the execution under key lands. The caller must
// have submitted it (the frontier context always is).
func (ex *executor) await(key string) {
	ex.mu.Lock()
	e := ex.entries[key]
	ex.mu.Unlock()
	if e == nil {
		panic("tenant: await on an unsubmitted execution key " + key)
	}
	<-e.done
}

// resolve implements the pass resolver against the result cache.
func (ex *executor) resolve(ctx execCtx) (*outcome, bool, error) {
	ex.mu.Lock()
	e := ex.entries[ctx.key()]
	ex.mu.Unlock()
	if e != nil {
		select {
		case <-e.done:
			if e.err != nil {
				if ctx.certain {
					return nil, false, e.err
				}
				return ex.estimate(ctx), false, nil
			}
			return translateOutcome(e.out, e.ctx, ctx), true, nil
		default:
		}
	}
	return ex.estimate(ctx), false, nil
}

// estimate fabricates a plausible outcome for an unresolved admission,
// so the pass can keep replaying past it. Any finished execution of the
// same template (whatever its shrink/warm key) beats the zero outcome.
// Estimates only steer which executions run speculatively — the fleet
// returns nothing until a pass resolves every admission exactly.
func (ex *executor) estimate(ctx execCtx) *outcome {
	if ctx.tmplKey != "" {
		ex.mu.Lock()
		e := ex.canon[ctx.tmplKey]
		ex.mu.Unlock()
		if e != nil {
			return translateOutcome(e.out, e.ctx, ctx)
		}
	}
	return &outcome{res: &core.Result{ID: ctx.id()}, finalWarm: ctx.warm}
}

// close abandons queued speculative work, waits for in-flight
// executions (they read the shared object store) and retires the pool.
func (ex *executor) close() {
	ex.mu.Lock()
	ex.closed = true
	ex.mu.Unlock()
	ex.cond.Broadcast()
	ex.wg.Wait()
}
