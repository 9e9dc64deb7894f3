// Package faas simulates the Function-as-a-Service platform (IBM Cloud
// Functions in the paper) on which MLLess workers and the supervisor run.
// It enforces the FaaS constraints that shape the whole system design
// (§2):
//
//   - functions are stateless and cannot communicate directly — the
//     package intentionally offers no function-to-function channel;
//   - at most 2 GB of memory per function and a hard 10-minute execution
//     limit;
//   - CPU is allocated proportionally to memory, topping out at one vCPU
//     at 2 GB — there is no intra-worker thread parallelism (§5, Fig 3);
//   - invocations pay a cold-start penalty unless a warm container is
//     available;
//   - billing is pay-per-use, per GB-second of execution.
//
// Each Instance carries its own virtual clock; the training engine
// charges compute and I/O time to it and reconciles clocks at BSP
// barriers.
package faas

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"mlless/internal/cost"
	"mlless/internal/faults"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// Platform-wide limits, matching IBM Cloud Functions.
const (
	// MaxMemoryMiB is the largest function size the platform allows.
	MaxMemoryMiB = 2048
	// fullCPUMemoryMiB is the memory size at which a function gets one
	// full vCPU.
	fullCPUMemoryMiB = 2048
)

// ErrOverLimit reports that a function exceeded the maximum execution
// duration. The engine checkpoints and re-launches workers that come
// near the limit (§3.1); a single step too long to fit the remaining
// budget cannot be split, so the engine surfaces this error instead of
// silently overrunning.
var ErrOverLimit = errors.New("faas: function exceeded maximum execution duration")

// ErrTooMuchMemory reports an invocation requesting more memory than the
// platform allows.
var ErrTooMuchMemory = errors.New("faas: requested memory exceeds platform maximum")

// ErrTerminated reports an operation on an already-terminated instance.
var ErrTerminated = errors.New("faas: instance already terminated")

// ErrTooManyConcurrent reports that a concurrent activation limit —
// the platform-wide MaxConcurrent cap or a per-namespace quota — is
// exhausted. The training engine treats it as retryable with backoff
// (under shared quotas it is a steady-state event, not a failure).
var ErrTooManyConcurrent = errors.New("faas: concurrent activation limit reached")

// Config parameterizes the platform.
type Config struct {
	// ColdStart is the invocation latency with no warm container.
	ColdStart time.Duration
	// WarmStart is the invocation latency when a warm container exists.
	WarmStart time.Duration
	// MaxDuration is the hard per-invocation execution limit.
	MaxDuration time.Duration
	// MaxConcurrent caps simultaneously running activations
	// platform-wide (IBM's default limit is 1000). 0 disables the cap.
	// Per-namespace caps within it are set with Platform.SetQuota.
	MaxConcurrent int
}

// DefaultConfig matches IBM Cloud Functions as described in §2: 10-minute
// limit, cold starts of around half a second, 1000 concurrent
// activations.
func DefaultConfig() Config {
	return Config{
		ColdStart:     500 * time.Millisecond,
		WarmStart:     25 * time.Millisecond,
		MaxDuration:   10 * time.Minute,
		MaxConcurrent: 1000,
	}
}

// Platform is a simulated FaaS provider. It is safe for concurrent use.
type Platform struct {
	cfg    Config
	faults *faults.Injector
	tracer *trace.Tracer

	mu       sync.Mutex
	nextID   int
	running  map[int]*Instance
	billed   []billedRun
	warmPool int

	// Multi-tenant accounting (see NamespaceOf): per-namespace quotas
	// and live activation counts.
	quota map[string]int
	perNS map[string]int

	reg *trace.Registry
	// Counters live in the unified registry under "faas.*".
	cInvocations, cColdStarts, cWarmStarts, cTerminated, cFailedInvocations, cReclaimed, cQuotaRejections *trace.Counter
}

type billedRun struct {
	name     string
	duration time.Duration
	memGiB   float64
	// claimed marks runs already metered by the caller (TerminateInto /
	// Reclaim); BillTo skips them so the two billing paths never
	// double-count GB-seconds.
	claimed bool
}

// NewPlatform returns a platform with the given configuration and a
// private metrics registry.
func NewPlatform(cfg Config) *Platform {
	return NewPlatformWithRegistry(cfg, trace.NewRegistry())
}

// NewPlatformWithRegistry returns a platform whose counters live in the
// given unified registry under "faas.*".
func NewPlatformWithRegistry(cfg Config, reg *trace.Registry) *Platform {
	return &Platform{
		cfg:                cfg,
		running:            make(map[int]*Instance),
		quota:              make(map[string]int),
		perNS:              make(map[string]int),
		reg:                reg,
		cInvocations:       reg.Counter("faas.invocations"),
		cColdStarts:        reg.Counter("faas.cold_starts"),
		cWarmStarts:        reg.Counter("faas.warm_starts"),
		cTerminated:        reg.Counter("faas.terminated"),
		cFailedInvocations: reg.Counter("faas.failed_invocations"),
		cReclaimed:         reg.Counter("faas.reclaimed"),
		cQuotaRejections:   reg.Counter("faas.quota_rejections"),
	}
}

// NamespaceOf maps a function name to its activation namespace: the
// prefix up to the first '/', or the whole name when there is none.
// Engine function names are "<tenant>/jobN/worker-i" under a tenant and
// "jobN/worker-i" standalone, so a tenant's jobs share one namespace
// and standalone jobs each get their own — collision-free by
// construction because tenant names may not contain '/'.
func NamespaceOf(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

// Registry returns the metrics registry the platform's counters live in.
func (p *Platform) Registry() *trace.Registry { return p.reg }

// SetTracer installs (or, with nil, removes) a tracer. The platform
// emits lifecycle instants — "terminate" and "reclaim", annotated with
// the billed seconds and dollars — on the dying instance's track. Same
// concurrency contract as SetFaults.
func (p *Platform) SetTracer(tr *trace.Tracer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tracer = tr
}

// SetFaults installs (or, with nil, removes) a fault injector. Callers
// must not change the injector while invocations are in flight; the
// engine installs it during job setup and removes it at teardown.
func (p *Platform) SetFaults(in *faults.Injector) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults = in
}

// Instance is one running function invocation. Its Clock is owned by the
// goroutine executing the function body; Platform methods only read it at
// termination.
type Instance struct {
	// ID uniquely identifies the invocation within the platform.
	ID int
	// Name labels the function for billing ("worker-3", "supervisor").
	Name string
	// MemoryMiB is the allocated memory.
	MemoryMiB int
	// Clock is the instance's virtual clock. It starts at the invocation
	// time plus the start latency.
	Clock vclock.Clock
	// ReclaimAt is the absolute virtual time at which the provider
	// reclaims this container (fault injection); 0 means never. Work
	// charged to the Clock past ReclaimAt is void: the engine detects the
	// death at its next checkpointable boundary and re-launches.
	ReclaimAt time.Duration
	// Cold reports whether this invocation paid the cold-start latency
	// (no warm container, or the warm pool was bypassed).
	Cold bool

	startAt    time.Duration
	terminated bool
	ns         string // activation namespace (NamespaceOf(Name))
}

// Invoke launches a function of memoryMiB at virtual time at. The first
// invocation (and any invocation beyond the warm pool) pays the
// cold-start latency; containers freed by Terminate keep a warm slot.
// With a fault injector installed, the attempt may fail transiently
// (wrapping faults.ErrInjected — retry with backoff), a cold start may
// draw a heavy-tailed straggler multiplier, and the container may be
// scheduled for mid-run reclamation (Instance.ReclaimAt).
func (p *Platform) Invoke(name string, memoryMiB int, at time.Duration) (*Instance, error) {
	return p.invoke(name, memoryMiB, at, false)
}

// InvokeCold is Invoke bypassing the warm pool: the container always
// boots cold. The engine uses it when recovering from a reclamation —
// the platform just withdrew capacity, so no warm container is assumed.
// Bypassing the pool also keeps recovery deterministic: concurrent
// recoveries never race for a bounded number of warm slots.
func (p *Platform) InvokeCold(name string, memoryMiB int, at time.Duration) (*Instance, error) {
	return p.invoke(name, memoryMiB, at, true)
}

func (p *Platform) invoke(name string, memoryMiB int, at time.Duration, forceCold bool) (*Instance, error) {
	if memoryMiB <= 0 || memoryMiB > MaxMemoryMiB {
		return nil, fmt.Errorf("invoke %s with %d MiB: %w", name, memoryMiB, ErrTooMuchMemory)
	}

	p.mu.Lock()
	defer p.mu.Unlock()

	if p.faults.InvokeFails(name, at) {
		p.cFailedInvocations.Inc()
		return nil, fmt.Errorf("invoke %s at %v: %w", name, at, faults.ErrInjected)
	}
	if p.cfg.MaxConcurrent > 0 && len(p.running) >= p.cfg.MaxConcurrent {
		p.cQuotaRejections.Inc()
		return nil, fmt.Errorf("invoke %s (%d running): %w", name, len(p.running), ErrTooManyConcurrent)
	}
	ns := NamespaceOf(name)
	if q := p.quota[ns]; q > 0 && p.perNS[ns] >= q {
		p.cQuotaRejections.Inc()
		return nil, fmt.Errorf("invoke %s (namespace %s: %d of %d activations used): %w",
			name, ns, p.perNS[ns], q, ErrTooManyConcurrent)
	}

	start := p.cfg.ColdStart
	cold := true
	if !forceCold && p.warmPool > 0 {
		p.warmPool--
		start = p.cfg.WarmStart
		cold = false
		p.cWarmStarts.Inc()
	} else {
		// Cold path: stragglers stretch the boot latency.
		start = time.Duration(float64(start) * p.faults.ColdStartFactor(name, at))
		p.cColdStarts.Inc()
	}
	p.cInvocations.Inc()

	inst := &Instance{
		ID:        p.nextID,
		Name:      name,
		MemoryMiB: memoryMiB,
		Cold:      cold,
		startAt:   at,
		ns:        ns,
	}
	if life := p.faults.ReclaimAfter(name, at); life > 0 {
		inst.ReclaimAt = at + start + life
	}
	p.nextID++
	inst.Clock.AdvanceTo(at + start)
	p.running[inst.ID] = inst
	p.perNS[ns]++
	return inst, nil
}

// SetQuota caps the namespace's simultaneously running activations at
// max; max <= 0 removes the cap. Quotas compose
// with the platform-wide MaxConcurrent: an invocation must clear both.
func (p *Platform) SetQuota(ns string, max int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if max <= 0 {
		delete(p.quota, ns)
		return
	}
	p.quota[ns] = max
}

// Quota returns the namespace's activation cap (0 = uncapped).
func (p *Platform) Quota(ns string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.quota[ns]
}

// Terminate ends an invocation, records its elapsed time for BillTo, and
// returns the container to the warm pool. Terminating twice is an error.
func (p *Platform) Terminate(inst *Instance) error {
	return p.end(inst, nil, true)
}

// TerminateInto is Terminate billing the run directly into m. The run is
// marked claimed, so a later BillTo will not meter it again: a caller
// combining core.Run (which bills through the meter) with BillTo cannot
// double-count GB-seconds.
func (p *Platform) TerminateInto(inst *Instance, m *cost.Meter) error {
	return p.end(inst, m, true)
}

// Reclaim ends an invocation whose container the provider withdrew: the
// container does not rejoin the warm pool, and the run is billed (into
// m, claimed) only up to the reclaim point — work charged to the clock
// past Instance.ReclaimAt was void and is not paid for.
func (p *Platform) Reclaim(inst *Instance, m *cost.Meter) error {
	return p.end(inst, m, false)
}

func (p *Platform) end(inst *Instance, m *cost.Meter, warm bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()

	if inst.terminated {
		return fmt.Errorf("terminate %s (id %d): %w", inst.Name, inst.ID, ErrTerminated)
	}
	inst.terminated = true
	delete(p.running, inst.ID)
	if p.perNS[inst.ns]--; p.perNS[inst.ns] == 0 {
		delete(p.perNS, inst.ns)
	}
	if warm {
		p.warmPool++
	} else {
		p.cReclaimed.Inc()
	}
	p.cTerminated.Inc()

	d := inst.Elapsed()
	if !warm && inst.ReclaimAt > 0 {
		if lived := inst.ReclaimAt - inst.startAt; lived >= 0 && lived < d {
			d = lived
		}
	}
	memGiB := float64(inst.MemoryMiB) / 1024
	p.billed = append(p.billed, billedRun{
		name:     inst.Name,
		duration: d,
		memGiB:   memGiB,
		claimed:  m != nil,
	})
	if m != nil {
		m.AddFunction(inst.Name, d, memGiB)
	}
	if p.tracer.Enabled() {
		name := "terminate"
		if !warm {
			name = "reclaim"
		}
		p.tracer.InstantAt(&inst.Clock, trace.CatFaaS, name, inst.startAt+d,
			trace.Str("fn", inst.Name),
			trace.Secs("billed_s", d),
			trace.Float("usd", cost.FunctionCost(d, memGiB)))
	}
	return nil
}

// Running reports the number of live instances.
func (p *Platform) Running() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.running)
}

// Config returns the platform configuration.
func (p *Platform) Config() Config { return p.cfg }

// BillTo adds every terminated invocation to the meter, skipping runs
// already metered through TerminateInto or Reclaim. Live instances are
// not billed; terminate them first.
func (p *Platform) BillTo(m *cost.Meter) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, run := range p.billed {
		if run.claimed {
			continue
		}
		m.AddFunction(run.name, run.duration, run.memGiB)
	}
}

// BilledFunctionSeconds sums the billed execution time of all terminated
// invocations, weighted by nothing (plain seconds).
func (p *Platform) BilledFunctionSeconds() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total time.Duration
	for _, run := range p.billed {
		total += run.duration
	}
	return total
}

// WarmPool reports how many terminated-warm containers are available
// for reuse by the next invocations.
func (p *Platform) WarmPool() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.warmPool
}

// SetWarmPool overwrites the warm-container pool. The fleet scheduler
// uses it to preset a forked platform with the shared pool's value at a
// job's admission instant, and to write the pool's post-fold value back
// onto the shared platform (DESIGN.md §15).
func (p *Platform) SetWarmPool(n int) {
	if n < 0 {
		panic("faas: negative warm pool")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.warmPool = n
}

// BilledRun is one terminated invocation on the platform's bill, in
// termination order. Claimed runs were already metered by their caller
// (TerminateInto / Reclaim); BillTo skips them.
type BilledRun struct {
	Name     string
	Duration time.Duration
	MemGiB   float64
	Claimed  bool
}

// BilledRuns returns a copy of the platform's bill in termination order.
func (p *Platform) BilledRuns() []BilledRun {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]BilledRun, len(p.billed))
	for i, run := range p.billed {
		out[i] = BilledRun{Name: run.name, Duration: run.duration, MemGiB: run.memGiB, Claimed: run.claimed}
	}
	return out
}

// AbsorbBilled appends runs to the platform's bill, preserving their
// order and claimed marks. The fleet scheduler folds a forked
// platform's bill (with job labels relocated to their final namespace)
// into the shared platform so BillTo and BilledFunctionSeconds see
// exactly what a host-serial run would have recorded.
func (p *Platform) AbsorbBilled(runs []BilledRun) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, run := range runs {
		p.billed = append(p.billed, billedRun{name: run.Name, duration: run.Duration, memGiB: run.MemGiB, claimed: run.Claimed})
	}
}

// CPUShare returns the fraction of one vCPU available to the instance:
// memory-proportional, capped at 1.0 (IBM gives a 2 GB function the
// equivalent of one vCPU, §5).
func (inst *Instance) CPUShare() float64 {
	share := float64(inst.MemoryMiB) / fullCPUMemoryMiB
	if share > 1 {
		share = 1
	}
	return share
}

// Threads reports the usable degree of thread parallelism inside the
// function: always 1 on this platform regardless of memory, which is the
// observation of Fig 3 (no worthwhile intra-worker data parallelism).
func (inst *Instance) Threads() int { return 1 }

// Elapsed returns how long the invocation has executed (virtual).
func (inst *Instance) Elapsed() time.Duration {
	return inst.Clock.Now() - inst.startAt
}

// CheckLimit returns ErrOverLimit when the invocation has outlived the
// platform's execution cap.
func (inst *Instance) CheckLimit(cfg Config) error {
	if cfg.MaxDuration > 0 && inst.Elapsed() > cfg.MaxDuration {
		return fmt.Errorf("%s (id %d) ran %v: %w", inst.Name, inst.ID, inst.Elapsed(), ErrOverLimit)
	}
	return nil
}

// StartedAt returns the invocation's launch time.
func (inst *Instance) StartedAt() time.Duration { return inst.startAt }
