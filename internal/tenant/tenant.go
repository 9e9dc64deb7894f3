// Package tenant is the multi-tenant control plane over the simulated
// MLLess substrate: it admits many training jobs from many tenants onto
// one shared core.Cluster, enforcing per-tenant FaaS concurrency quotas
// inside the platform-wide cap, splitting the bill per tenant, and
// asking admitted jobs to scale in when others are waiting.
//
// The fleet is a discrete-event simulation in the same virtual time the
// engine runs in. Jobs arrive on a seeded schedule, queue until their
// activation demand (workers + supervisor) fits under both caps, and
// then execute with Spec.StartAt set to the admission instant —
// barriers are absolute virtual times, so each job's trace is exactly
// the trace it would produce alone, shifted. While a job occupies its
// virtual window [admit, complete), its demand is held in the control
// plane's reservation ledger, which every later admission decision
// counts against both caps; scale-in evictions release slots early, at
// the eviction's virtual time. Everything is a pure function of the
// configuration, so fleets are byte-reproducible.
//
// Jobs whose virtual windows overlap train concurrently on host
// goroutines (Config.HostPar): a fixed-point decision pass replays the
// admission loop over pure ledgers while sandboxed executions fill in
// outcomes, so the report, event log and bills are byte-identical at
// every parallelism level (see parallel.go). Traced, fault-injected and
// collective-exchange jobs run in the same sandboxes; they only opt out
// of memoization (execCtx.memoable).
package tenant

import (
	"errors"
	"fmt"
	"time"

	"mlless/internal/core"
)

// Fleet-validation errors.
var (
	// ErrNoCluster means Config.Cluster was nil.
	ErrNoCluster = errors.New("tenant: nil cluster")
	// ErrNoTenant means an arrival names a tenant not in Config.Tenants.
	ErrNoTenant = errors.New("tenant: arrival for unknown tenant")
	// ErrBadQuota means a tenant quota is negative or exceeds the
	// platform-wide MaxConcurrent (such a tenant could never use its
	// allocation, so the configuration is almost certainly a typo).
	ErrBadQuota = errors.New("tenant: quota exceeds platform MaxConcurrent")
	// ErrNeverFits means a job's activation demand exceeds its tenant's
	// quota or the platform cap: it would wait forever.
	ErrNeverFits = errors.New("tenant: job demand can never be admitted")
	// ErrDupTenant means two Config.Tenants entries share a name.
	ErrDupTenant = errors.New("tenant: duplicate tenant name")
)

// Tenant is one paying customer of the shared platform.
type Tenant struct {
	// Name is the tenant's activation namespace; it may not contain '/'
	// (core.ErrBadTenant) and may not be empty.
	Name string
	// Quota caps the tenant's concurrently-running activations,
	// reservations included. 0 means no per-tenant cap (the platform
	// cap still applies).
	Quota int
}

// Arrival is one job submission: a tenant asks for a training job at a
// virtual instant. The Spec fields Tenant, StartAt and Shrink belong to
// the control plane and must be zero; the fleet fills them in.
type Arrival struct {
	// At is the submission's virtual time.
	At time.Duration
	// Tenant names the submitting tenant.
	Tenant string
	// Workload labels the job for reports ("lr-criteo", "pmf-1m", ...).
	Workload string
	// Job is the training job to run. Model and Optimizer are prototypes
	// (the engine clones them per worker), so the Job itself is never
	// mutated and one arrival can be executed more than once.
	Job core.Job
	// TemplateKey, when non-empty, asserts that this arrival's Job is a
	// fresh stamp of a shared workload template: any two arrivals with
	// the same key train identical models on identical data with an
	// identical spec. The host-parallel fleet engine relies on this to
	// memoize executions — one simulated run per (template, shrink,
	// warm-pool) combination, translated to each admission's start time
	// and namespace. Leave it empty for hand-built arrivals; the fleet
	// then executes each one individually. GenerateArrivals stamps it
	// with the template's Name.
	TemplateKey string
}

// Config describes a fleet run.
type Config struct {
	// Cluster is the shared substrate every job runs on. Datasets must
	// already be staged into its object store.
	Cluster *core.Cluster
	// Tenants are the platform's customers; quotas are installed on the
	// cluster's FaaS platform before the first admission.
	Tenants []Tenant
	// Arrivals is the submission schedule. It need not be sorted; the
	// fleet orders it by (At, index).
	Arrivals []Arrival
	// NoScaleIn disables contention-triggered shrink requests: jobs
	// keep their full width even while others wait.
	NoScaleIn bool
	// HostPar bounds the host worker pool the fleet engine executes
	// admitted jobs on: jobs whose virtual windows overlap train
	// concurrently on real cores, and their effects are folded back in
	// virtual-time order, so the event log, report and bills are
	// byte-identical for every value. 0 (the default) uses
	// runtime.GOMAXPROCS(0); 1 executes jobs one at a time.
	HostPar int
}

// Event is one line of the fleet's control-plane log. The log is the
// determinism artifact: two same-seed fleet runs must produce
// byte-identical logs.
type Event struct {
	// At is the event's virtual time.
	At time.Duration
	// Kind is "arrive", "admit", "shrink-request", "scale-in" or
	// "complete".
	Kind string
	// Tenant is the owning tenant.
	Tenant string
	// Job is the job's namespace ID once admitted ("t1/job3"), or the
	// workload label before admission.
	Job string
	// Detail is the kind-specific remainder of the line.
	Detail string

	seq int // creation order, tie-break for equal At
}

// String renders the event as one log line.
func (ev Event) String() string {
	s := fmt.Sprintf("t=%.3fs %-14s tenant=%s job=%s", ev.At.Seconds(), ev.Kind, ev.Tenant, ev.Job)
	if ev.Detail != "" {
		s += " " + ev.Detail
	}
	return s
}

// waiting is a submitted, not-yet-admitted job.
type waiting struct {
	arr    Arrival
	seq    int // arrival order, FIFO tie-break
	demand int // workers + supervisor
}

// release frees n reserved slots of a tenant at a virtual instant —
// either a scale-in eviction (n=1) or a job completion. job is the
// releasing job's namespace ID: releases due at the same instant are
// applied in (tenant, job, seq) order, a total order over fleet state
// rather than insertion history, so a slot freed and re-acquired at one
// instant resolves identically however the schedule was produced.
type release struct {
	at     time.Duration
	tenant string
	job    string
	n      int
	seq    int
}

// Run executes the fleet to completion and returns its report. The
// error path is configuration trouble or an engine failure; jobs that
// merely exhaust MaxSteps without converging are reported, not errors.
func Run(cfg Config) (*Report, error) {
	f, err := newFleet(cfg)
	if err != nil {
		return nil, err
	}
	return f.run()
}

type fleet struct {
	cfg    Config
	cl     *core.Cluster
	quota  map[string]int
	events []Event
	jobs   []JobRecord
}

func newFleet(cfg Config) (*fleet, error) {
	if cfg.Cluster == nil {
		return nil, ErrNoCluster
	}
	platCap := cfg.Cluster.Platform.Config().MaxConcurrent
	quota := make(map[string]int, len(cfg.Tenants))
	for _, t := range cfg.Tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("tenant: empty tenant name: %w", core.ErrBadTenant)
		}
		if _, dup := quota[t.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDupTenant, t.Name)
		}
		if t.Quota < 0 || (platCap > 0 && t.Quota > platCap) {
			return nil, fmt.Errorf("%w: tenant %q quota %d, platform cap %d",
				ErrBadQuota, t.Name, t.Quota, platCap)
		}
		quota[t.Name] = t.Quota
	}
	for _, a := range cfg.Arrivals {
		q, ok := quota[a.Tenant]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoTenant, a.Tenant)
		}
		demand := a.Job.Spec.Workers + 1
		if (q > 0 && demand > q) || (platCap > 0 && demand > platCap) {
			return nil, fmt.Errorf("%w: tenant %q workload %q needs %d activations (quota %d, cap %d)",
				ErrNeverFits, a.Tenant, a.Workload, demand, q, platCap)
		}
		if a.Job.Spec.Tenant != "" || a.Job.Spec.StartAt != 0 || len(a.Job.Spec.Shrink) != 0 {
			return nil, fmt.Errorf("tenant: arrival %q/%q sets control-plane spec fields (Tenant/StartAt/Shrink)",
				a.Tenant, a.Workload)
		}
	}
	for name, q := range quota {
		if q > 0 {
			cfg.Cluster.Platform.SetQuota(name, q)
		}
	}
	return &fleet{cfg: cfg, cl: cfg.Cluster, quota: quota}, nil
}

// releaseLess orders releases by (at, tenant, job, seq) — the
// documented commit order for reservation returns.
func releaseLess(rs []release) func(i, j int) bool {
	return func(i, j int) bool {
		if rs[i].at != rs[j].at {
			return rs[i].at < rs[j].at
		}
		if rs[i].tenant != rs[j].tenant {
			return rs[i].tenant < rs[j].tenant
		}
		if rs[i].job != rs[j].job {
			return rs[i].job < rs[j].job
		}
		return rs[i].seq < rs[j].seq
	}
}

// functionTime sums the billed duration of the job's function
// components — its share of the platform's GB-second meter (every
// function in a job runs at the same memory size, so plain seconds
// split the bill exactly like GB-seconds do).
func functionTime(res *core.Result) time.Duration {
	var d time.Duration
	for _, c := range res.Cost.Components {
		if c.Kind == "function" {
			d += c.Duration
		}
	}
	return d
}

// functionDollars sums the job's function charges.
func functionDollars(res *core.Result) float64 {
	var usd float64
	for _, c := range res.Cost.Components {
		if c.Kind == "function" {
			usd += c.Dollars
		}
	}
	return usd
}
