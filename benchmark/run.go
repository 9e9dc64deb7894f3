package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"time"

	"mlless"
	"mlless/internal/tenant"
)

// outcome is what one repetition produced: the virtual-clock results
// (deterministic, checked by digest) and the handles the traced pass
// reads per-layer numbers from.
type outcome struct {
	makespan, p99         time.Duration
	cost, finalLoss, jain float64
	steps, workerSteps    int64
	// attempted and failed count operations: one job execution each.
	attempted, failed int
	digest            string

	res      *mlless.Result
	rep      *tenant.Report
	cl       *mlless.Cluster
	tracer   *mlless.Tracer
	counters map[string]int64 // registry deltas across the timed call
}

type runOpts struct {
	trace   bool // single-job workloads only: Job.Trace = NewTracer()
	hostPar int  // fleet workloads only; 0 = GOMAXPROCS
}

// runOnce executes one repetition on a fresh cluster. Only the call
// under test — mlless.Train or tenant.Run — is inside the timer.
func (st *staged) runOnce(w workload, opt runOpts) (outcome, hostSample, error) {
	cl := st.freshCluster()
	before := snapshot(cl)
	out := outcome{cl: cl}
	var hs hostSample
	var err error
	if w.fleet {
		arrivals := st.arrivals
		out.attempted = len(arrivals)
		cfg := tenant.Config{Cluster: cl, Tenants: st.tenants, Arrivals: arrivals, HostPar: opt.hostPar}
		hs = measure(func() { out.rep, err = tenant.Run(cfg) })
		if err == nil {
			out.fromReport()
		}
	} else {
		job := st.job()
		if opt.trace {
			out.tracer = mlless.NewTracer()
			job.Trace = out.tracer
		}
		out.attempted = 1
		hs = measure(func() { out.res, err = mlless.Train(cl, job) })
		if err == nil {
			out.fromResult(st.mustTarget)
		}
	}
	if err != nil {
		return out, hs, fmt.Errorf("%s: %w", w.name, err)
	}
	out.counters = snapshot(cl)
	for k, v := range before {
		out.counters[k] -= v
	}
	return out, hs, nil
}

func snapshot(cl *mlless.Cluster) map[string]int64 {
	m := make(map[string]int64)
	for _, c := range cl.Metrics.Snapshot() {
		m[c.Name] = c.Value
	}
	return m
}

func (o *outcome) fromResult(mustTarget bool) {
	r := o.res
	o.makespan, o.p99, o.jain = r.ExecTime, r.ExecTime, 1
	o.cost, o.finalLoss = r.Cost.Total, r.FinalLoss
	o.steps = int64(r.Steps)
	for _, h := range r.History {
		o.workerSteps += int64(h.Workers)
	}
	if r.Diverged || (mustTarget && !r.Converged) {
		o.failed = 1
	}
	o.digest = digestResult(r)
}

func (o *outcome) fromReport() {
	r := o.rep
	o.makespan, o.p99, o.jain, o.cost = r.Makespan, r.P99Latency, r.Jain, r.FunctionDollars
	for _, j := range r.Jobs {
		o.finalLoss += j.FinalLoss / float64(len(r.Jobs))
		o.steps += int64(j.Steps)
		o.workerSteps += int64(j.Steps) * int64(j.Workers)
	}
	if o.failed = o.attempted - len(r.Jobs); o.failed < 0 {
		o.failed = 0
	}
	o.digest = digestReport(r)
}

// digester hashes a repetition's deterministic outputs bit for bit.
type digester struct{ h hash.Hash }

func newDigester() digester { return digester{sha256.New()} }

func (d digester) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}
func (d digester) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}
func (d digester) str(s string) { d.u64(uint64(len(s))); d.h.Write([]byte(s)) }
func (d digester) sum() string  { return hex.EncodeToString(d.h.Sum(nil)) }

// digestResult covers the loss history, the evictions, ExecTime and the
// bill (components sorted by name).
func digestResult(r *mlless.Result) string {
	d := newDigester()
	for _, h := range r.History {
		d.u64(uint64(h.Step), uint64(h.Time), uint64(h.Workers), uint64(h.UpdateBytes), uint64(h.Duration))
		d.f64(h.Loss, h.RawLoss)
	}
	for _, rm := range r.Removals {
		d.u64(uint64(rm.Step), uint64(rm.Time), uint64(rm.Worker), uint64(rm.WorkersLeft))
	}
	d.u64(uint64(r.ExecTime))
	comps := append([]mlless.CostComponent(nil), r.Cost.Components...)
	sort.Slice(comps, func(i, j int) bool { return comps[i].Name < comps[j].Name })
	for _, c := range comps {
		d.str(c.Name)
		d.str(c.Kind)
		d.u64(uint64(c.Duration))
		d.f64(c.Dollars)
	}
	return d.sum()
}

// digestReport covers the control-plane event log, the per-tenant bills
// and every job's training outcome.
func digestReport(r *tenant.Report) string {
	d := newDigester()
	for _, ev := range r.Events {
		d.str(ev.String())
	}
	for _, t := range r.Tenants {
		d.str(t.Name)
		d.u64(uint64(t.FunctionTime))
		d.f64(t.FunctionDollars)
	}
	for _, j := range r.Jobs {
		d.str(j.ID)
		d.u64(uint64(j.Steps))
		d.f64(j.FinalLoss)
	}
	return d.sum()
}
