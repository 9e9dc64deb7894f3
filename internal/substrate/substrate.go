// Package substrate is the shared per-operation pipeline of the
// simulated storage and messaging services. Every operation a substrate
// (key-value store, object store, message broker) serves runs the same
// four stages on the caller's virtual clock:
//
//	link time → fault multiplier → trace span → registry counters
//
// The nominal link charge (latency + bytes/bandwidth, package netmodel)
// is advanced first; the seeded fault injector may then stretch the
// operation with retries or latency spikes; if a tracer is installed,
// one span covering the whole stretched operation is recorded with the
// observed charge multiplier; and the substrate's counters live in the
// unified trace.Registry the pipeline was built with. kvstore, objstore
// and msgqueue all delegate to this one implementation instead of
// hand-rolling the plumbing per service, so a new backend picks up
// charging, fault injection, tracing and metrics by constructing a
// Pipeline — nothing else.
//
// The pipeline also supports fan-out charging: a service that issues
// several operations as concurrent streams (the object store's multi-
// object reads and writes) computes each branch's full pipeline cost
// with Cost, emits the per-branch spans with TraceRange, and advances
// the caller's clock by the maximum — modelling parallel connections
// rather than a serial sum.
package substrate

import (
	"sync"
	"time"

	"mlless/internal/faults"
	"mlless/internal/netmodel"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// Domain selects which fault-injection stream perturbs a pipeline's
// operations. Injection decisions are pure functions of (domain, op,
// key, virtual time), so distinct domains draw independent faults.
type Domain int

const (
	// DomainNone disables fault injection for the pipeline (the object
	// store: the paper's failure modes live on the KV store, the broker
	// and the FaaS control plane).
	DomainNone Domain = iota
	// DomainKV draws from the KV store fault stream (Spec.KV*).
	DomainKV
	// DomainMQ draws from the message broker fault stream (Spec.MQ*).
	DomainMQ
)

// Config parameterizes a Pipeline.
type Config struct {
	// Link is the network path every operation is charged through.
	Link netmodel.Link
	// Cat is the trace category of the substrate's spans (trace.CatKV,
	// trace.CatObj, trace.CatMQ).
	Cat string
	// KeyLabel names the span argument carrying the operation's key
	// ("key" for stores, "queue" for the broker).
	KeyLabel string
	// Domain selects the fault stream (DomainNone disables injection).
	Domain Domain
}

// Pipeline runs the shared per-operation stages for one substrate. It
// is safe for concurrent use under the same contract as the substrates
// themselves: SetFaults/SetTracer happen-before the worker goroutines
// that perform operations (the engine installs both during job setup
// and removes them at teardown).
type Pipeline struct {
	cfg Config
	reg *trace.Registry

	mu     sync.Mutex
	faults *faults.Injector
	tracer *trace.Tracer
}

// New returns a pipeline whose counters resolve from reg.
func New(cfg Config, reg *trace.Registry) *Pipeline {
	return &Pipeline{cfg: cfg, reg: reg}
}

// Registry returns the unified metrics registry the pipeline was built
// with.
func (p *Pipeline) Registry() *trace.Registry { return p.reg }

// Counter resolves a counter from the pipeline's registry. Substrates
// resolve their semantic counters ("kv.gets", "mq.published") once at
// construction and update them lock-free.
func (p *Pipeline) Counter(name string) *trace.Counter { return p.reg.Counter(name) }

// SetFaults installs (or, with nil, removes) the fault injector. Do not
// call concurrently with operations.
func (p *Pipeline) SetFaults(in *faults.Injector) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults = in
}

// SetTracer installs (or, with nil, removes) the tracer. Same
// concurrency contract as SetFaults.
func (p *Pipeline) SetTracer(tr *trace.Tracer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tracer = tr
}

// Link returns the pipeline's network link for time estimation.
func (p *Pipeline) Link() netmodel.Link { return p.cfg.Link }

// TransferTime estimates moving n payload bytes through the link.
func (p *Pipeline) TransferTime(n int) time.Duration { return p.cfg.Link.TransferTime(n) }

// RTT returns the zero-payload request time of the link.
func (p *Pipeline) RTT() time.Duration { return p.cfg.Link.RTT() }

// delay returns the injected extra time for an operation whose nominal
// charge instant is now. The lock-free read of p.faults is safe because
// SetFaults happens-before the operating goroutines (see SetFaults).
func (p *Pipeline) delay(op, key string, now, base time.Duration) time.Duration {
	switch p.cfg.Domain {
	case DomainKV:
		return p.faults.KVDelay(op, key, now, base)
	case DomainMQ:
		return p.faults.MQDelay(op, key, now, base)
	}
	return 0
}

// Cost returns the full pipeline duration of an operation that starts
// at start with nominal charge base: the base itself plus the fault
// delay drawn at the operation's charge instant start+base. It advances
// no clock, so fan-out callers can price parallel branches and charge
// only the maximum.
func (p *Pipeline) Cost(op, key string, start, base time.Duration) time.Duration {
	return base + p.delay(op, key, start+base, base)
}

// Charge runs the full pipeline for one operation on clk: the nominal
// base is advanced, then any injected fault delay, and one span
// covering the whole operation is recorded (with the observed charge
// multiplier as "fault_x" when faults stretched it past base). bytes
// annotates the span's payload size.
func (p *Pipeline) Charge(clk *vclock.Clock, op, key string, bytes int, base time.Duration) {
	start := clk.Now()
	clk.Advance(base)
	if d := p.delay(op, key, clk.Now(), base); d > 0 {
		clk.Advance(d)
	}
	if p.tracer.Enabled() {
		p.span(clk, op, key, start, bytes, base)
	}
}

// ChargeUntraced is Charge without the span: link time and fault delay
// only. Metadata operations that the real services perform server-side
// (key scans, HEAD requests, TTL deletes) stay off the timeline.
func (p *Pipeline) ChargeUntraced(clk *vclock.Clock, op, key string, base time.Duration) {
	clk.Advance(base)
	if d := p.delay(op, key, clk.Now(), base); d > 0 {
		clk.Advance(d)
	}
}

// span records one operation span from start to clk.Now() on the
// clock's track. It is only called when the tracer is enabled, so
// disabled paths never materialize the argument slice.
func (p *Pipeline) span(clk *vclock.Clock, op, key string, start time.Duration, bytes int, base time.Duration) {
	actual := clk.Now() - start
	if actual > base && base > 0 {
		p.tracer.SpanAt(clk, p.cfg.Cat, op, start,
			trace.Str(p.cfg.KeyLabel, key), trace.Int("bytes", bytes),
			trace.Float("fault_x", float64(actual)/float64(base)))
		return
	}
	p.tracer.SpanAt(clk, p.cfg.Cat, op, start,
		trace.Str(p.cfg.KeyLabel, key), trace.Int("bytes", bytes))
}

// TraceRange records the span of one fan-out branch over [start, end]
// on clk's registered track, without charging the clock (the caller
// advances it by the maximum branch cost). The charge multiplier follows
// the key and byte annotations when the branch ran past its nominal
// base. Call only when Enabled.
func (p *Pipeline) TraceRange(clk *vclock.Clock, op, key string, start, end, base time.Duration, bytes int) {
	if !p.tracer.Enabled() {
		return
	}
	args := make([]trace.Arg, 0, 3)
	args = append(args, trace.Str(p.cfg.KeyLabel, key), trace.Int("bytes", bytes))
	if actual := end - start; actual > base && base > 0 {
		args = append(args, trace.Float("fault_x", float64(actual)/float64(base)))
	}
	p.tracer.SpanRangeAt(clk, p.cfg.Cat, op, start, end, args...)
}

// Enabled reports whether a tracer is installed. Substrates use it to
// keep argument construction off the disabled path.
func (p *Pipeline) Enabled() bool { return p.tracer.Enabled() }
