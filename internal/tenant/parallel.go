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
// fold and return; otherwise replace the pool's unstarted work with the
// pass's contexts and block until the frontier's execution lands. Each
// wait retires at least one admission, so the loop terminates after at
// most one pass per arrival.
//
// Every job memoable admits is keyed without its start time, job
// number or tenant and serves wherever the final pass admits it: every
// virtual duration in such a run is independent of absolute start time,
// and key or name lengths never enter link charging. A pass reads the
// cached outcome as the execution left it, shifting its eviction
// instants by the start-time delta; only the fold relabels billing
// names, and only for the final pass. So such a job runs speculatively
// on an idle executor as soon as some pass predicts its (shrink, warm)
// context, template or not. A template key only adds sharing: every
// arrival of the template resolves from one canonical execution per
// context. The auto-tuner counts its epochs from the job's start, so
// tuned jobs memoize too. Fault decisions are pure functions of (seed,
// operation, key, virtual time) and a tracer records absolute times and
// names into the caller's buffer, so faulted and traced jobs take exact
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
// What the fold writes back: the event log (rendered from the final
// pass's event fields) and job records; every execution's billed runs
// (relabelled names, termination order, admission-ordered) absorbed
// into the shared platform so BillTo and BilledFunctionSeconds cover the
// fleet; every execution's service counters summed into the shared
// registry; the final warm-pool ledger. Sandbox-private broker queue
// declarations and empty per-job substrate state are not replicated — a
// completed job leaves none behind.
package tenant

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/core"
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
	give     int       // contention-triggered shrink request (0 = none)
	warm     int       // warm containers preset from the fleet ledger
	demand   int       // workers + supervisor
	certain  bool      // true iff every earlier admission resolved exactly
	job      *core.Job // the arrival's, shared and never written
}

// id is the namespace the job runs under.
func (c execCtx) id() string { return core.JobNamespace(c.tenant, c.num) }

// stamped returns the arrival's job with the control-plane spec fields
// filled in for this admission.
func (c execCtx) stamped() core.Job {
	job := *c.job
	job.Spec.Tenant = c.tenant
	job.Spec.StartAt = c.startAt
	if c.give > 0 {
		job.Spec.Shrink = []core.ShrinkDirective{{At: 0, Workers: c.give}}
	}
	return job
}

// memoable reports whether the outcome is a pure function of
// (memoID, give, warm) alone — i.e. translation across start times,
// tenants and job numbers is exact. That is a property of the job, not
// of its template: fault draws are keyed on operation names and
// absolute times, and a tracer's events carry both, so either pins the
// outcome to its admission. Nothing else in a job can: the auto-tuner
// counts its epochs from the job's own start, and newFleet rejects
// arrivals that set the control-plane fields (Tenant, StartAt, Shrink).
func (c execCtx) memoable() bool {
	return c.job.Trace == nil && !c.job.Spec.Faults.Enabled()
}

// memoKey names the job a memoable execution trains: its template when
// the arrival carries one (shared by every arrival stamped from it),
// otherwise the arrival itself. The two cannot collide: a template key
// is never empty, and an arrival's memo key has an empty template.
type memoKey struct {
	tmpl   string
	arrSeq int
}

func (c execCtx) memoID() memoKey {
	if c.tmplKey != "" {
		return memoKey{tmpl: c.tmplKey}
	}
	return memoKey{arrSeq: c.arrSeq}
}

// execKey identifies an execution's result cache slot: (memoID, give,
// warm) for memoable jobs — no start time, job number or tenant, so one
// execution serves the admission wherever the final pass places it —
// and the full exact context otherwise.
type execKey struct {
	memo       memoKey
	exact      bool
	num        int
	tenant     string
	startAt    time.Duration
	give, warm int
}

func (c execCtx) key() execKey {
	if c.memoable() {
		return execKey{memo: c.memoID(), give: c.give, warm: c.warm}
	}
	return execKey{memo: memoKey{arrSeq: c.arrSeq}, exact: true,
		num: c.num, tenant: c.tenant, startAt: c.startAt, give: c.give, warm: c.warm}
}

// outcome is everything the control plane consumes from one execution,
// as the execution left it: absolute instants and billing names belong
// to the context it ran under.
type outcome struct {
	ran       execCtx
	res       *core.Result
	finalWarm int              // sandbox warm pool after the run
	billed    []faas.BilledRun // in ran's namespace; the fold relabels them
	counters  []trace.Metric   // sandbox registry snapshot
	// The job's billed function time and charges, summed once by
	// executor.finish: a pass charges them to every admission the
	// execution serves.
	funcTime    time.Duration
	funcDollars float64
}

// resolver returns the outcome for an execution context and whether it
// is exact. The outcome is untranslated: its ran field is the context
// it executed under. A non-nil error aborts the fleet; it is only
// returned for certain contexts whose execution genuinely failed.
type resolver func(execCtx) (out *outcome, exact bool, err error)

// passEvent is a control-plane event as a pass records it: the kind's
// fields, not its text. Only the folded pass renders its events.
type passEvent struct {
	at   time.Duration
	kind string // Event.Kind
	ref  int    // arrival index for "arrive", admission index otherwise
	// demand (arrive, admit), give (shrink-request), or worker and
	// workers left (scale-in)
	a, b int
}

// pass is one replay of the fleet control loop over pure ledgers. One
// pass value serves every replay of a fleet: runPass empties its ledgers
// and keeps their backing arrays.
type pass struct {
	// The replay's inputs, the same for every pass of a fleet.
	arrivals []Arrival // sorted by (At, index)
	base     int       // first reserved cluster job number
	warm0    int       // the shared platform's warm pool before the fleet

	exact    bool
	err      error
	frontier int // index in ctxs of the first inexact admission
	ctxs     []execCtx
	outs     []*outcome

	events []passEvent
	jobs   []JobRecord
	served []time.Duration // billed function time, by tenant number

	inUse      []int // reserved slots, by tenant number
	totalInUse int
	warm       int
	releases   []release
	waitq      []bucket // kept across passes, emptied by runPass
	queued     int      // jobs in waitq
	now        time.Duration
	seq        int // releases created so far, their commit tie-break
}

func (p *pass) event(at time.Duration, kind string, ref, a, b int) {
	p.events = append(p.events, passEvent{at: at, kind: kind, ref: ref, a: a, b: b})
}

// renderEvents renders the pass's event log. The fold calls it once, on
// the final pass.
func (p *pass) renderEvents() []Event {
	evs := make([]Event, len(p.events))
	for i, e := range p.events {
		ev := Event{At: e.at, Kind: e.kind, seq: i}
		if e.kind == "arrive" {
			a := &p.arrivals[e.ref]
			ev.Tenant, ev.Job = a.Tenant, a.Workload
			ev.Detail = fmt.Sprintf("demand=%d", e.a)
		} else {
			j := &p.jobs[e.ref]
			ev.Tenant, ev.Job = j.Tenant, j.ID
			switch e.kind {
			case "admit":
				ev.Detail = fmt.Sprintf("workload=%s demand=%d waited=%.3fs", j.Workload, e.a, j.Wait.Seconds())
			case "shrink-request":
				ev.Detail = fmt.Sprintf("give=%d", e.a)
			case "scale-in":
				ev.Detail = fmt.Sprintf("worker=%d left=%d", e.a, e.b)
			case "complete":
				ev.Detail = fmt.Sprintf("workload=%s steps=%d converged=%v loss=%.6f", j.Workload, j.Steps, j.Converged, j.FinalLoss)
			}
		}
		evs[i] = ev
	}
	return evs
}

func (p *pass) release(at time.Duration, tenant int, job string, n int) {
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
	slices.SortStableFunc(p.releases, compareReleases)
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
func (p *pass) nextInstant(ai int) (time.Duration, bool) {
	next := time.Duration(-1)
	if ai < len(p.arrivals) {
		next = p.arrivals[ai].At
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
	if q := f.quota[w.tenant]; q > 0 && p.inUse[w.tenant]+w.demand > q {
		return false
	}
	if cap := f.cl.Platform.Config().MaxConcurrent; cap > 0 && p.totalInUse+w.demand > cap {
		return false
	}
	return true
}

// bucket queues the waiting jobs of one tenant and demand in arrival
// order, jobs[head:]. Its jobs all fit or none does, and its head comes
// first among them in the fair-share order.
type bucket struct {
	tenant, demand, head int
	jobs                 []waiting
}

// enqueue queues w at the back of its bucket.
func (p *pass) enqueue(w waiting) {
	i := 0
	for i < len(p.waitq) && (p.waitq[i].tenant != w.tenant || p.waitq[i].demand != w.demand) {
		i++
	}
	if i == len(p.waitq) {
		p.waitq = append(p.waitq, bucket{tenant: w.tenant, demand: w.demand})
	}
	p.waitq[i].jobs = append(p.waitq[i].jobs, w)
	p.queued++
}

// pickAdmissible removes and returns the fair-share choice among queued
// jobs that fit right now; false if none does. Fairness is min served
// billed function-time per tenant (the platform's own currency), FIFO
// within and across equally-served tenants. Only bucket heads compete:
// the choice is the one a scan of every queued job would make.
func (p *pass) pickAdmissible(f *fleet) (waiting, bool) {
	var best *bucket
	for i := range p.waitq {
		b := &p.waitq[i]
		if b.head == len(b.jobs) || !p.fits(f, &b.jobs[b.head]) {
			continue
		}
		if best == nil {
			best = b
			continue
		}
		w, bw := &b.jobs[b.head], &best.jobs[best.head]
		if p.served[w.tenant] < p.served[bw.tenant] ||
			(p.served[w.tenant] == p.served[bw.tenant] && w.seq < bw.seq) {
			best = b
		}
	}
	if best == nil {
		return waiting{}, false
	}
	w := best.jobs[best.head]
	if best.head++; best.head == len(best.jobs) {
		best.head, best.jobs = 0, best.jobs[:0]
	}
	p.queued--
	return w, true
}

// newPass fixes the inputs every replay of the fleet shares: the
// arrivals in (At, index) order, one reserved job number per arrival and
// the shared platform's warm pool.
func (f *fleet) newPass() *pass {
	arrivals := append([]Arrival(nil), f.cfg.Arrivals...)
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].At < arrivals[j].At })
	return &pass{
		arrivals: arrivals,
		base:     f.cl.ReserveJobIDs(len(arrivals)),
		warm0:    f.cl.Platform.WarmPool(),
		served:   make([]time.Duration, len(f.quota)),
		inUse:    make([]int, len(f.quota)),
	}
}

// runPass replays the fleet once against the resolver, into p's emptied
// ledgers. It never touches shared state: everything it produces lives
// in p.
func (f *fleet) runPass(p *pass, resolve resolver) {
	p.exact, p.err, p.frontier = true, nil, 0
	p.ctxs, p.outs, p.events, p.jobs = p.ctxs[:0], p.outs[:0], p.events[:0], p.jobs[:0]
	p.releases, p.queued = p.releases[:0], 0
	for i := range p.waitq {
		p.waitq[i].head, p.waitq[i].jobs = 0, p.waitq[i].jobs[:0]
	}
	clear(p.served)
	clear(p.inUse)
	p.totalInUse, p.warm, p.now, p.seq = 0, p.warm0, 0, 0
	ai := 0
	for {
		// Ingest every submission due by now, then apply due releases,
		// then admit whatever fits — releases before admissions, so a
		// slot freed at t is usable at t.
		for ai < len(p.arrivals) && p.arrivals[ai].At <= p.now {
			a := &p.arrivals[ai]
			demand := a.Job.Spec.Workers + 1
			p.enqueue(waiting{arr: a, tenant: f.number[a.Tenant], seq: ai, demand: demand})
			p.event(a.At, "arrive", ai, demand, 0)
			ai++
		}
		p.applyReleases()
		for {
			w, ok := p.pickAdmissible(f)
			if !ok {
				break
			}
			if !f.admitPass(p, w, resolve) {
				return
			}
		}
		next, ok := p.nextInstant(ai)
		if !ok {
			if p.queued > 0 {
				// Cannot happen after the newFleet demand check, but
				// guard against it rather than spin forever.
				p.err = fmt.Errorf("%w: %d jobs stuck in queue at t=%v",
					ErrNeverFits, p.queued, p.now)
			}
			return
		}
		p.now = next
	}
}

// admitPass replays one admission at the pass's current instant: its
// events, its reservation and the releases that drain it. It reports
// false when the pass must abort.
func (f *fleet) admitPass(p *pass, w waiting, resolve resolver) bool {
	spec := w.arr.Job.Spec

	// Contention-triggered scale-in: others are waiting, so ask this
	// job to hand back workers once past its knee — the same guardrail
	// the §4.2 auto-tuner uses, so convergence is not stalled. The
	// request is due immediately (At: 0 is before any barrier) and
	// bounded by the queue depth and the tuner's MinWorkers floor
	// (Sched.MinWorkers, or the engine's own Workers/4 default).
	give := 0
	if !f.cfg.NoScaleIn && p.queued > 0 && spec.Sync != consistency.Async {
		floor := spec.Sched.MinWorkers
		if floor <= 0 {
			floor = spec.Workers / 4
			if floor < 1 {
				floor = 1
			}
		}
		if g := spec.Workers - floor; g > 0 {
			if g > p.queued {
				g = p.queued
			}
			give = g
		}
	}
	warm := p.warm
	if warm > w.demand {
		warm = w.demand
	}
	idx := len(p.ctxs)
	ctx := execCtx{
		idx: idx, arrSeq: w.seq, num: p.base + idx,
		tenant: w.arr.Tenant, workload: w.arr.Workload, tmplKey: w.arr.TemplateKey,
		startAt: p.now, give: give, warm: warm, demand: w.demand,
		certain: p.exact, job: &w.arr.Job,
	}
	out, exact, err := resolve(ctx)
	if err != nil {
		p.err = fmt.Errorf("tenant: job %q/%q admitted at %v: %w", ctx.tenant, ctx.workload, p.now, err)
		return false
	}
	if !exact && p.exact {
		p.exact = false
		p.frontier = idx
	}

	// The outcome's eviction instants are absolute in the context it ran
	// under; dt moves them to this admission's start.
	res, dt, id := out.res, p.now-out.ran.startAt, ctx.id()
	p.event(p.now, "admit", idx, w.demand, 0)
	if give > 0 {
		p.event(p.now, "shrink-request", idx, give, 0)
	}
	// The job holds its demand over its virtual window [now, complete),
	// drained early by its scale-in evictions.
	p.inUse[w.tenant] += w.demand
	p.totalInUse += w.demand
	complete := p.now + res.ExecTime
	for _, rm := range res.Removals {
		p.release(rm.Time+dt, w.tenant, id, 1)
		p.event(rm.Time+dt, "scale-in", idx, rm.Worker, rm.WorkersLeft)
	}
	p.release(complete, w.tenant, id, w.demand-len(res.Removals))
	p.event(complete, "complete", idx, 0, 0)

	p.served[w.tenant] += out.funcTime
	p.jobs = append(p.jobs, JobRecord{
		ID: id, Tenant: ctx.tenant, Workload: ctx.workload,
		ArriveAt: w.arr.At, AdmitAt: p.now, CompleteAt: complete,
		Wait: p.now - w.arr.At, Exec: res.ExecTime,
		Workers: spec.Workers, Shrunk: len(res.Removals),
		FunctionTime: out.funcTime, FunctionDollars: out.funcDollars,
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

// run is the fixed-point fleet loop on a pool of hostPar goroutines.
func (f *fleet) run() (*Report, error) {
	ex := newExecutor(f, f.hostPar())
	defer ex.close()
	return f.runOn(ex)
}

// runOn settles the fleet, then folds its final pass.
func (f *fleet) runOn(ex *executor) (*Report, error) {
	p := f.newPass()
	if err := f.settle(ex, p); err != nil {
		return nil, err
	}
	f.fold(p)
	return f.report(), nil
}

// settle alternates pass and execution until a pass resolves every
// admission exactly, and leaves that pass in p. Each pass's contexts
// replace the previous pass's unstarted ones, so the queue only ever
// holds the latest prediction of the trajectory, frontier first. Every
// pass reuses p's ledgers: submit copies the contexts it keeps, and only
// the final pass is folded.
func (f *fleet) settle(ex *executor, p *pass) error {
	for {
		f.runPass(p, ex.resolve)
		if p.err != nil {
			return p.err
		}
		if p.exact {
			return nil
		}
		ex.trim()
		for _, ctx := range p.ctxs {
			ex.submit(ctx)
		}
		ex.await(p.ctxs[p.frontier].key())
	}
}

// fold commits the final pass: control-plane log and records, relabelled
// bills in admission order, summed service counters, warm-pool ledger.
func (f *fleet) fold(p *pass) {
	f.events = p.renderEvents()
	f.jobs = p.jobs
	for i, out := range p.outs {
		f.cl.Platform.AbsorbBilled(translateOutcome(out, p.ctxs[i]))
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
	for _, t := range f.cfg.Tenants {
		if t.Quota > 0 {
			plat.SetQuota(t.Name, t.Quota)
		}
	}
	plat.SetWarmPool(ctx.warm)
	scl := &core.Cluster{
		Redis:    kvstore.NewWithRegistry(f.cl.Redis.Link(), reg),
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
		ran:       ctx,
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

// translateOutcome relabels a finished execution's billed runs from the
// namespace it ran under into that of the admission it serves. Nothing
// else is left to translate at fold time: the pass has shifted the
// eviction instants, and the function share and counters carry no
// names.
func translateOutcome(out *outcome, to execCtx) []faas.BilledRun {
	oldID, newID := out.ran.id(), to.id()
	billed := make([]faas.BilledRun, len(out.billed))
	copy(billed, out.billed)
	for i := range billed {
		billed[i].Name = rename(billed[i].Name, oldID, newID)
	}
	return billed
}

// entry is one execution's result slot.
type entry struct {
	key  execKey
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
	cond       *sync.Cond
	queue      []*entry
	closed     bool
	entries    map[execKey]*entry
	canon      map[memoKey]*entry // memoID -> a finished canonical
	byWorkload map[string]*entry  // Arrival.Workload -> first finished execution
	started    int                // executions taken off the queue
	wg         sync.WaitGroup
}

// newExecutor starts par pool goroutines. With par 0 nothing drains the
// queue; in-package tests drive such an executor by hand with next and
// finish.
func newExecutor(f *fleet, par int) *executor {
	ex := &executor{
		f:          f,
		entries:    make(map[execKey]*entry),
		canon:      make(map[memoKey]*entry),
		byWorkload: make(map[string]*entry),
	}
	ex.cond = sync.NewCond(&ex.mu)
	ex.wg.Add(par)
	for i := 0; i < par; i++ {
		go ex.work()
	}
	return ex
}

func (ex *executor) work() {
	defer ex.wg.Done()
	for e := ex.next(); e != nil; e = ex.next() {
		out, err := ex.f.sandboxRun(e.ctx)
		ex.finish(e, out, err)
	}
}

// next blocks until work is queued and takes the oldest entry, or
// returns nil once the executor is closed. Queued-but-unstarted work is
// abandoned then: it was speculative and never touched shared state.
func (ex *executor) next() *entry {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for len(ex.queue) == 0 && !ex.closed {
		ex.cond.Wait()
	}
	if ex.closed {
		return nil
	}
	e := ex.queue[0]
	ex.queue = ex.queue[1:]
	ex.started++
	return e
}

// finish publishes an execution's result and sums its function share.
// The first successful execution of each memoID becomes its canonical,
// and the first of each workload label the fallback estimate for that
// label's arrivals.
func (ex *executor) finish(e *entry, out *outcome, err error) {
	if err == nil {
		out.funcTime, out.funcDollars = functionTime(out.res), functionDollars(out.res)
	}
	ex.mu.Lock()
	e.out, e.err = out, err
	if err == nil {
		if e.ctx.memoable() {
			if id := e.ctx.memoID(); ex.canon[id] == nil {
				ex.canon[id] = e
			}
		}
		if ex.byWorkload[e.ctx.workload] == nil {
			ex.byWorkload[e.ctx.workload] = e
		}
	}
	ex.mu.Unlock()
	close(e.done)
}

// trim drops every queued-but-unstarted execution and forgets its key,
// so the next pass may submit it again. Running and finished executions
// stay: a running one is never cancelled, however stale its prediction.
func (ex *executor) trim() {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for _, e := range ex.queue {
		delete(ex.entries, e.key)
	}
	ex.queue = nil
}

// submit enqueues an execution unless its key is already queued,
// running or cached. Memoable contexts run speculatively — their results
// translate to any start time, job number and tenant, so an execution
// from an estimated pass is exactly the one the final pass asks for
// whenever its (give, warm) prediction held. Exact-keyed contexts only
// run once certain, so a misprediction can never waste a full training
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
	e := &entry{key: key, ctx: ctx, done: make(chan struct{})}
	ex.entries[key] = e
	ex.queue = append(ex.queue, e)
	ex.cond.Signal()
}

// await blocks until the execution under key lands. The caller must
// have submitted it (the frontier context always is).
func (ex *executor) await(key execKey) {
	ex.mu.Lock()
	e := ex.entries[key]
	ex.mu.Unlock()
	if e == nil {
		panic(fmt.Sprintf("tenant: await on an unsubmitted execution key %+v", key))
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
			return e.out, true, nil
		default:
		}
	}
	return ex.estimate(ctx), false, nil
}

// estimate fabricates a plausible outcome for an unresolved admission,
// so the pass can keep replaying past it. In order of preference: the
// canonical execution of the same memoID (the same job under another
// shrink/warm key), the first finished execution of the same workload
// label; else the zero outcome, which hands back one warm container per
// activation of demand, as every finished job does. Estimates only
// steer which executions run speculatively — the fleet returns nothing
// until a pass resolves every admission exactly — but the closer they
// are, the fewer speculative runs the final pass discards.
func (ex *executor) estimate(ctx execCtx) *outcome {
	ex.mu.Lock()
	e := ex.byWorkload[ctx.workload]
	if ctx.memoable() {
		if c := ex.canon[ctx.memoID()]; c != nil {
			e = c
		}
	}
	ex.mu.Unlock()
	if e != nil {
		return e.out
	}
	return &outcome{ran: ctx, res: &core.Result{}, finalWarm: ctx.demand}
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
