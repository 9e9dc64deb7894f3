// Package faults is the deterministic fault-injection layer of the
// simulator. The paper's premise is that FaaS training must survive an
// unreliable substrate — 10-minute execution caps, reclaimed containers,
// cold-start jitter (§2, §3.1) — so the simulated services accept an
// optional Injector that perturbs them with the failure modes observed
// on real platforms:
//
//   - transient invocation failures (the FaaS control plane rejects an
//     activation; the client must retry with backoff);
//   - heavy-tailed cold-start stragglers (a Pareto-distributed latency
//     multiplier on the cold-start path);
//   - mid-run container reclamation (the provider withdraws a running
//     container; the worker's in-flight step is lost);
//   - per-operation failures and latency spikes on the KV store and the
//     message broker (retried client-side, costing virtual time).
//
// Every decision is a pure function of the Spec seed and the operation's
// identity (service, operation, key, virtual time), derived through
// internal/xrand. No shared generator state exists, so injection is
// exactly reproducible regardless of how the engine's worker goroutines
// are scheduled: two runs of the same job with the same Spec observe the
// same faults at the same virtual instants.
package faults

import (
	"errors"
	"math"
	"sync"
	"time"

	"mlless/internal/xrand"
)

// ErrInjected marks a failure produced by the injector rather than by a
// configuration or programming error. Callers use errors.Is to decide
// whether an operation is worth retrying.
var ErrInjected = errors.New("faults: injected failure")

// Defaults for the Spec knobs that shape fault magnitude (probabilities
// default to zero: no injection).
const (
	// DefaultStragglerAlpha is the Pareto tail index of the cold-start
	// straggler multiplier; alpha = 1.5 gives a mean multiplier of 3.
	DefaultStragglerAlpha = 1.5
	// DefaultStragglerCap bounds the straggler multiplier so a single
	// draw cannot stall a simulated job indefinitely.
	DefaultStragglerCap = 50.0
	// DefaultReclaimMeanLife is the mean container lifetime when an
	// invocation is marked for reclamation.
	DefaultReclaimMeanLife = 5 * time.Minute
	// DefaultRetryPenalty is the client-side timeout paid per failed KV
	// or broker operation before the retry.
	DefaultRetryPenalty = 50 * time.Millisecond
	// maxOpRetries bounds consecutive per-op failures so a pathological
	// probability cannot loop forever.
	maxOpRetries = 5
	// minReclaimLife keeps drawn container lifetimes positive so a fresh
	// instance always executes at least a moment before dying again.
	minReclaimLife = time.Second
)

// Spec configures fault injection for one job. The zero value disables
// every fault; probabilities are per invocation (FaaS) or per operation
// (KV store, broker).
type Spec struct {
	// Seed drives every injection decision. Two runs with equal Specs
	// observe identical faults.
	Seed uint64

	// InvokeFailProb is the probability that an invocation attempt fails
	// transiently and must be retried by the caller.
	InvokeFailProb float64
	// StragglerProb is the probability that a cold start draws a
	// heavy-tailed latency multiplier.
	StragglerProb float64
	// StragglerAlpha is the Pareto tail index of the multiplier
	// (default 1.5; smaller is heavier-tailed).
	StragglerAlpha float64
	// StragglerCap bounds the multiplier (default 50).
	StragglerCap float64
	// ReclaimProb is the probability that an invocation's container is
	// scheduled for mid-run reclamation.
	ReclaimProb float64
	// ReclaimMeanLife is the mean of the exponentially distributed
	// container lifetime when reclamation is scheduled (default 5 min).
	ReclaimMeanLife time.Duration

	// KVFailProb is the per-operation KV store failure probability; each
	// failed attempt costs KVRetryPenalty plus a re-execution of the op.
	KVFailProb float64
	// KVSlowProb is the per-operation probability of a latency spike.
	KVSlowProb float64
	// KVSlowFactor multiplies the operation's charge on a spike
	// (default 10).
	KVSlowFactor float64
	// KVRetryPenalty is the timeout paid per failed KV attempt
	// (default 50 ms).
	KVRetryPenalty time.Duration

	// MQFailProb, MQSlowProb, MQSlowFactor and MQRetryPenalty mirror the
	// KV knobs for the message broker.
	MQFailProb     float64
	MQSlowProb     float64
	MQSlowFactor   float64
	MQRetryPenalty time.Duration
}

// Enabled reports whether the spec injects anything at all.
func (s Spec) Enabled() bool {
	return s.InvokeFailProb > 0 || s.StragglerProb > 0 || s.ReclaimProb > 0 ||
		s.KVFailProb > 0 || s.KVSlowProb > 0 ||
		s.MQFailProb > 0 || s.MQSlowProb > 0
}

// withDefaults fills the magnitude knobs left at zero.
func (s Spec) withDefaults() Spec {
	if s.StragglerAlpha <= 0 {
		s.StragglerAlpha = DefaultStragglerAlpha
	}
	if s.StragglerCap <= 1 {
		s.StragglerCap = DefaultStragglerCap
	}
	if s.ReclaimMeanLife <= 0 {
		s.ReclaimMeanLife = DefaultReclaimMeanLife
	}
	if s.KVSlowFactor <= 1 {
		s.KVSlowFactor = 10
	}
	if s.KVRetryPenalty <= 0 {
		s.KVRetryPenalty = DefaultRetryPenalty
	}
	if s.MQSlowFactor <= 1 {
		s.MQSlowFactor = 10
	}
	if s.MQRetryPenalty <= 0 {
		s.MQRetryPenalty = DefaultRetryPenalty
	}
	return s
}

// Metrics counts the faults an Injector has delivered.
type Metrics struct {
	// InvokeFailures counts transiently failed invocation attempts.
	InvokeFailures int64
	// Stragglers counts cold starts stretched by the heavy-tailed
	// multiplier.
	Stragglers int64
	// ReclaimsScheduled counts invocations given a finite container
	// lifetime (the engine records how many actually died in
	// Result.Recovery).
	ReclaimsScheduled int64
	// KVFailures and KVSlowOps count injected KV store faults.
	KVFailures int64
	KVSlowOps  int64
	// MQFailures and MQSlowOps count injected broker faults.
	MQFailures int64
	MQSlowOps  int64
}

// Injector produces deterministic fault decisions. All methods are safe
// for concurrent use and safe on a nil receiver (a nil *Injector injects
// nothing), so the substrates need no guard at their call sites.
type Injector struct {
	spec Spec

	mu      sync.Mutex
	metrics Metrics
}

// New returns an injector for spec with magnitude defaults applied.
func New(spec Spec) *Injector {
	return &Injector{spec: spec.withDefaults()}
}

// Metrics returns a snapshot of the injected-fault counters.
func (in *Injector) Metrics() Metrics {
	if in == nil {
		return Metrics{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.metrics
}

// Decision domains keep the random streams of different fault kinds
// independent even for identical keys and times.
const (
	domInvoke uint64 = iota + 1
	domStraggler
	domReclaim
	domKV
	domMQ
)

// rng derives a private generator from the operation's identity. The
// derivation is stateless: equal (domain, key, t) always yield the same
// stream, and distinct operations yield independent streams.
func (in *Injector) rng(domain uint64, key string, t time.Duration) *xrand.RNG {
	// FNV-1a over the key folded with the seed, domain and virtual time,
	// then passed through splitmix64 (inside xrand) for avalanche.
	h := in.spec.Seed ^ 0xcbf29ce484222325
	h = (h ^ domain) * 0x100000001b3
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 0x100000001b3
	}
	h = (h ^ uint64(t)) * 0x100000001b3
	return xrand.New(h)
}

// InvokeFails decides whether the invocation attempt identified by
// (name, at) fails transiently.
func (in *Injector) InvokeFails(name string, at time.Duration) bool {
	if in == nil || in.spec.InvokeFailProb <= 0 {
		return false
	}
	if !in.rng(domInvoke, name, at).Bernoulli(in.spec.InvokeFailProb) {
		return false
	}
	in.mu.Lock()
	in.metrics.InvokeFailures++
	in.mu.Unlock()
	return true
}

// ColdStartFactor returns the latency multiplier for a cold start: 1
// normally, and a bounded Pareto draw for stragglers.
func (in *Injector) ColdStartFactor(name string, at time.Duration) float64 {
	if in == nil || in.spec.StragglerProb <= 0 {
		return 1
	}
	r := in.rng(domStraggler, name, at)
	if !r.Bernoulli(in.spec.StragglerProb) {
		return 1
	}
	// Pareto(xm=1, alpha): factor = (1-u)^(-1/alpha), capped.
	u := r.Float64()
	factor := math.Pow(1-u, -1/in.spec.StragglerAlpha)
	if factor > in.spec.StragglerCap {
		factor = in.spec.StragglerCap
	}
	in.mu.Lock()
	in.metrics.Stragglers++
	in.mu.Unlock()
	return factor
}

// ReclaimAfter returns how long the container of the invocation
// identified by (name, at) lives before the provider reclaims it, or 0
// if it is never reclaimed.
func (in *Injector) ReclaimAfter(name string, at time.Duration) time.Duration {
	if in == nil || in.spec.ReclaimProb <= 0 {
		return 0
	}
	r := in.rng(domReclaim, name, at)
	if !r.Bernoulli(in.spec.ReclaimProb) {
		return 0
	}
	// Exponential lifetime with the configured mean, floored so a fresh
	// instance always runs for a moment.
	u := r.Float64()
	life := time.Duration(-float64(in.spec.ReclaimMeanLife) * math.Log1p(-u))
	if life < minReclaimLife {
		life = minReclaimLife
	}
	in.mu.Lock()
	in.metrics.ReclaimsScheduled++
	in.mu.Unlock()
	return life
}

// KVDelay returns the extra virtual time the KV store operation (op on
// key, nominally costing base) spends on injected failures and latency
// spikes at virtual time now.
func (in *Injector) KVDelay(op, key string, now, base time.Duration) time.Duration {
	if in == nil || (in.spec.KVFailProb <= 0 && in.spec.KVSlowProb <= 0) {
		return 0
	}
	return in.opDelay(domKV, op, key, now, base,
		in.spec.KVFailProb, in.spec.KVSlowProb, in.spec.KVSlowFactor, in.spec.KVRetryPenalty,
		func(m *Metrics, fails int64, slow bool) {
			m.KVFailures += fails
			if slow {
				m.KVSlowOps++
			}
		})
}

// MQDelay is KVDelay for the message broker.
func (in *Injector) MQDelay(op, queue string, now, base time.Duration) time.Duration {
	if in == nil || (in.spec.MQFailProb <= 0 && in.spec.MQSlowProb <= 0) {
		return 0
	}
	return in.opDelay(domMQ, op, queue, now, base,
		in.spec.MQFailProb, in.spec.MQSlowProb, in.spec.MQSlowFactor, in.spec.MQRetryPenalty,
		func(m *Metrics, fails int64, slow bool) {
			m.MQFailures += fails
			if slow {
				m.MQSlowOps++
			}
		})
}

// opDelay models client-side retries: each failed attempt costs the
// retry penalty plus a re-execution of the operation, and the final
// (successful) attempt may carry a latency spike.
func (in *Injector) opDelay(domain uint64, op, key string, now, base time.Duration,
	failProb, slowProb, slowFactor float64, penalty time.Duration,
	record func(*Metrics, int64, bool)) time.Duration {

	r := in.rng(domain, op+"\x00"+key, now)
	var extra time.Duration
	var fails int64
	for fails < maxOpRetries && failProb > 0 && r.Bernoulli(failProb) {
		fails++
		extra += penalty + base
	}
	slow := slowProb > 0 && r.Bernoulli(slowProb)
	if slow {
		extra += time.Duration(float64(base) * (slowFactor - 1))
	}
	if fails > 0 || slow {
		in.mu.Lock()
		record(&in.metrics, fails, slow)
		in.mu.Unlock()
	}
	return extra
}
