package tenant

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"mlless/internal/core"
	"mlless/internal/cost"
	"mlless/internal/exchange"
	"mlless/internal/faas"
	"mlless/internal/faults"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the reference run")

// fleetCase is one seeded fleet the engine is pinned on.
type fleetCase struct {
	name      string
	seed      uint64
	cap, jobs int
	// strip clears every TemplateKey: nothing memoizes, every admission
	// executes.
	strip bool
	// traced gives every job its own tracer, which opts it out of the
	// memo and changes nothing else.
	traced bool
	// tree makes every job tree-exchanged, with no tracer and no faults:
	// collective jobs that still memoize and translate.
	tree bool
	// hostile makes every job traced, fault-injected and tree-exchanged:
	// two memoable exclusions and a collective at once, with faults
	// firing.
	hostile bool
}

// goldenCases have their artifacts committed under testdata/. The files
// were captured from the host-serial fleet loop (every job inline on the
// shared substrates, capacity held as platform reservations) in the
// commit before that loop was deleted, so they pin the engine to its
// predecessor, not to itself.
var goldenCases = []fleetCase{
	{name: "plain", seed: 42, cap: 8, jobs: 9},
	// Cap 4 fits one job: the queue, fair-share and scale-in paths go
	// through the pass/estimate machinery.
	{name: "contended", seed: 11, cap: 4, jobs: 8},
	{name: "stripped", seed: 11, cap: 6, jobs: 6, strip: true},
	{name: "traced-faulted-tree", seed: 42, cap: 8, jobs: 9, hostile: true},
}

// hostileFaults fires every fault domain within the few virtual seconds
// a test job lives.
func hostileFaults(seed uint64) faults.Spec {
	return faults.Spec{
		Seed:           seed,
		InvokeFailProb: 0.1, StragglerProb: 0.2,
		ReclaimProb: 0.3, ReclaimMeanLife: 3 * time.Second,
		KVFailProb: 0.05, KVSlowProb: 0.05,
		MQFailProb: 0.05, MQSlowProb: 0.05,
	}
}

// build stages the case on a fresh cluster. tracers holds one tracer per
// arrival for traced and hostile cases, nil otherwise.
func (c fleetCase) build(t testing.TB) (cfg Config, tracers []*trace.Tracer) {
	t.Helper()
	cfg, arrivals := testFleet(t, c.seed, c.cap, c.jobs)
	for i := range arrivals {
		if c.strip {
			arrivals[i].TemplateKey = ""
		}
		if c.traced || c.hostile {
			tr := trace.New()
			tracers = append(tracers, tr)
			arrivals[i].Job.Trace = tr
		}
		if c.tree || c.hostile {
			arrivals[i].Job.Spec.Exchange = exchange.KindTree
		}
		if c.hostile {
			arrivals[i].Job.Spec.Faults = hostileFaults(c.seed)
		}
	}
	cfg.Arrivals = arrivals
	return cfg, tracers
}

// fleetArtifacts is everything a fleet run leaves behind that the engine
// promises to keep byte- and bit-identical at every HostPar: the
// control-plane log, the report (job records, per-tenant bills, headline
// metrics), the platform's billed function meter, the warm pool, the
// service counters and each traced job's rendered trace.
type fleetArtifacts struct {
	Log            string `json:"-"`
	Report         Report
	PlatformBilled time.Duration
	WarmPool       int
	UnclaimedRuns  int
	Counters       []trace.Metric
	TraceSHA256    []string `json:",omitempty"`
}

func collectArtifacts(t *testing.T, cfg Config, rep *Report, tracers []*trace.Tracer) fleetArtifacts {
	t.Helper()
	var log bytes.Buffer
	if err := rep.WriteEvents(&log); err != nil {
		t.Fatal(err)
	}
	var orphans cost.Meter
	cfg.Cluster.Platform.BillTo(&orphans)
	snap := cfg.Cluster.Metrics.Snapshot()
	sort.Slice(snap, func(i, j int) bool { return snap[i].Name < snap[j].Name })
	a := fleetArtifacts{
		Log:            log.String(),
		Report:         *rep,
		PlatformBilled: cfg.Cluster.Platform.BilledFunctionSeconds(),
		WarmPool:       cfg.Cluster.Platform.WarmPool(),
		UnclaimedRuns:  len(orphans.Report().Components),
		Counters:       snap,
	}
	a.Report.Events = nil // the log carries them
	for _, tr := range tracers {
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, tr.Events()); err != nil {
			t.Fatal(err)
		}
		a.TraceSHA256 = append(a.TraceSHA256, fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())))
	}
	return a
}

// golden renders the artifacts as the committed text form: the event
// log, then the rest as indented JSON (durations in ns, floats in their
// shortest round-trip form, so equal bytes mean equal bits).
func (a fleetArtifacts) golden(t *testing.T) []byte {
	t.Helper()
	doc, err := json.MarshalIndent(a, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return []byte(a.Log + "---\n" + string(doc) + "\n")
}

// diffGolden fails with the first differing line.
func diffGolden(t *testing.T, label string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			t.Fatalf("%s: artifacts differ at line %d:\nwant: %s\ngot:  %s", label, i+1, wl, gl)
		}
	}
}

// runEngine runs the case through tenant.Run at the given pool width.
func runEngine(t *testing.T, c fleetCase, hostPar int) fleetArtifacts {
	t.Helper()
	cfg, tracers := c.build(t)
	cfg.HostPar = hostPar
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return collectArtifacts(t, cfg, rep, tracers)
}

// runReference is the oracle the engine is pinned against and the
// goldens are regenerated from: one decision pass whose resolver runs
// every admission inline on the shared cluster, in admission order —
// no sandbox, no memo, no translation, no speculation, no fold. The
// shared platform's warm pool evolves on its own; the resolver reports
// its movement so the pass's warm ledger is checked against it.
func runReference(t *testing.T, c fleetCase) fleetArtifacts {
	t.Helper()
	cfg, tracers := c.build(t)
	f, err := newFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plat := f.cl.Platform
	p := f.newPass()
	f.runPass(p, func(ctx execCtx) (*outcome, bool, error) {
		before := plat.WarmPool()
		res, err := core.RunNumbered(f.cl, ctx.stamped(), ctx.num)
		if err != nil {
			return nil, false, err
		}
		return &outcome{ran: ctx, res: res, finalWarm: ctx.warm + plat.WarmPool() - before,
			funcTime: functionTime(res), funcDollars: functionDollars(res)}, true, nil
	})
	if p.err != nil {
		t.Fatal(p.err)
	}
	if p.warm != plat.WarmPool() {
		t.Fatalf("warm ledger says %d, the platform holds %d", p.warm, plat.WarmPool())
	}
	f.events, f.jobs = p.renderEvents(), p.jobs
	return collectArtifacts(t, cfg, f.report(), tracers)
}

func TestFleetMatchesGolden(t *testing.T) {
	// The determinism contract: at every host-parallelism level the
	// engine reproduces the committed artifacts byte for byte, and so
	// does the inline reference. Widths 2 and 8 run under -race in CI,
	// so the executor's sharing discipline is checked as well as its
	// outputs.
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join("testdata", "fleet-"+c.name+".golden")
			ref := runReference(t, c)
			if ref.UnclaimedRuns != 0 {
				t.Fatalf("reference left %d unclaimed runs", ref.UnclaimedRuns)
			}
			if *update {
				if err := os.WriteFile(path, ref.golden(t), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			diffGolden(t, "reference", want, ref.golden(t))
			for _, par := range []int{1, 2, 4, 8} {
				got := runEngine(t, c, par)
				diffGolden(t, fmt.Sprintf("host-par %d", par), want, got.golden(t))
			}
		})
	}
}

func TestFleetMatchesInlineReference(t *testing.T) {
	// What the goldens cannot cover — other seeds, caps and mixes — the
	// executable oracle does: sandbox, memo, translation, speculation and
	// fold must together be indistinguishable from running every
	// admission inline. The two stripped contended cases speculate
	// per-arrival executions from estimates that mispredict: a cap that
	// fits one job at a time gets the shrink requests wrong, a pool of 5
	// under 3- and 4-activation demands gets the warm counts wrong.
	for _, c := range []fleetCase{
		{name: "seed-7", seed: 7, cap: 8, jobs: 9},
		{name: "seed-23-contended", seed: 23, cap: 5, jobs: 8},
		{name: "seed-23-stripped", seed: 23, cap: 8, jobs: 6, strip: true},
		{name: "seed-11-stripped-contended", seed: 11, cap: 4, jobs: 8, strip: true},
		{name: "seed-23-stripped-contended", seed: 23, cap: 5, jobs: 8, strip: true},
		{name: "seed-7-hostile", seed: 7, cap: 6, jobs: 7, hostile: true},
		treeCase,
	} {
		t.Run(c.name, func(t *testing.T) {
			want := runReference(t, c).golden(t)
			for _, par := range []int{1, 2, 4, 8} {
				diffGolden(t, fmt.Sprintf("host-par %d", par), want, runEngine(t, c, par).golden(t))
			}
		})
	}
}

// treeCase is a templated fleet of tree-exchanged jobs: collective
// outcomes memoize and translate like any other.
var treeCase = fleetCase{name: "seed-7-tree", seed: 7, cap: 8, jobs: 12, tree: true}

func TestFleetTreeMemoMatchesStripped(t *testing.T) {
	// Sharing a collective job's outcome across arrivals must equal
	// executing each: the templated tree fleet (one execution per
	// template, shrink and warm key) and its stripped twin (every
	// admission executes, translated from its own per-arrival key, shared
	// with none) leave identical artifacts.
	stripped := treeCase
	stripped.strip = true
	want := runEngine(t, stripped, 4).golden(t)
	diffGolden(t, "templated", want, runEngine(t, treeCase, 4).golden(t))
}

func TestFleetTracedMatchesUntraced(t *testing.T) {
	// Observing a fleet must not change it: with a tracer on every job
	// (so nothing memoizes and every admission executes) the plain fleet
	// still reproduces the plain golden — event log, job records, bills,
	// counters. The same comparison pins memo-on against memo-off.
	want, err := os.ReadFile(filepath.Join("testdata", "fleet-plain.golden"))
	if err != nil {
		t.Fatal(err)
	}
	c := goldenCases[0]
	c.traced = true
	cfg, tracers := c.build(t)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range tracers {
		if tr.Len() == 0 {
			t.Fatalf("arrival %d recorded no trace events", i)
		}
	}
	got := collectArtifacts(t, cfg, rep, nil)
	diffGolden(t, "traced", want, got.golden(t))
}

func TestFleetLeavesSharedSubstratesClean(t *testing.T) {
	// Sandboxed jobs write only into their forks: after a fleet of
	// traced, faulted, tree-exchanged jobs the shared cluster holds the
	// staged dataset and nothing job-namespaced, and the fold accounts
	// for every billed second.
	c := goldenCases[3]
	cfg, _ := c.build(t)
	cl := cfg.Cluster
	var clk vclock.Clock
	staged := cl.COS.List(&clk, "ml", "")
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.COS.List(&clk, "ml", ""); !reflect.DeepEqual(staged, got) {
		t.Fatalf("dataset bucket changed: %d objects before, %d after", len(staged), len(got))
	}
	if n := cl.Redis.Len(); n != 0 {
		t.Fatalf("shared KV tier holds %d keys", n)
	}
	var perTenant time.Duration
	for _, tr := range rep.Tenants {
		perTenant += tr.FunctionTime
	}
	if billed := cl.Platform.BilledFunctionSeconds(); perTenant != billed {
		t.Fatalf("tenant bills sum to %v, platform metered %v", perTenant, billed)
	}
	var orphans cost.Meter
	cl.Platform.BillTo(&orphans)
	if n := len(orphans.Report().Components); n != 0 {
		t.Fatalf("%d function runs were never claimed by a job meter", n)
	}
	if cl.Platform.Running() != 0 {
		t.Fatalf("%d activations still running", cl.Platform.Running())
	}
	for _, j := range rep.Jobs {
		if objs := cl.COS.List(&clk, "xchg-"+j.ID, ""); len(objs) != 0 {
			t.Fatalf("job %s left %d exchange objects in the shared store", j.ID, len(objs))
		}
		if n := cl.Broker.Len(j.ID+"/losses") + cl.Broker.Len(j.ID+"/ann/0"); n != 0 {
			t.Fatalf("job %s left %d messages on the shared broker", j.ID, n)
		}
	}
}

func TestReleaseOrderIsStateNotInsertion(t *testing.T) {
	// Releases due at one instant must commit in (tenant, job, seq)
	// order however they were inserted — the documented total order that
	// keeps same-instant free/re-acquire resolution a pure function of
	// fleet state. Tenants t1, t2 and t9 are numbers 0, 1 and 2.
	at := 3 * time.Second
	rs := []release{
		{at: at, tenant: 1, job: "t2/job5", n: 1, seq: 9},
		{at: at, tenant: 0, job: "t1/job7", n: 2, seq: 8},
		{at: at, tenant: 0, job: "t1/job2", n: 1, seq: 7},
		{at: at - time.Second, tenant: 2, job: "t9/job9", n: 1, seq: 6},
		{at: at, tenant: 0, job: "t1/job2", n: 3, seq: 5},
	}
	slices.SortStableFunc(rs, compareReleases)
	want := []struct {
		job string
		seq int
	}{
		{"t9/job9", 6}, {"t1/job2", 5}, {"t1/job2", 7}, {"t1/job7", 8}, {"t2/job5", 9},
	}
	for i, w := range want {
		if rs[i].job != w.job || rs[i].seq != w.seq {
			t.Fatalf("release %d is %s/seq=%d, want %s/seq=%d", i, rs[i].job, rs[i].seq, w.job, w.seq)
		}
	}
}

func TestFleetParallelHandlesEmptyAndError(t *testing.T) {
	// Zero arrivals take the parallel path trivially; a fleet whose
	// queue can never drain surfaces ErrNeverFits from the pass guard.
	cfg, _ := testFleet(t, 5, 8, 2)
	cfg.Arrivals = nil
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 0 || len(rep.Events) != 0 {
		t.Fatalf("empty fleet produced %d jobs, %d events", len(rep.Jobs), len(rep.Events))
	}
}

// keyCtx is an untemplated, translation-invariant admission context.
func keyCtx() execCtx {
	return execCtx{
		arrSeq: 3, num: 7, tenant: "t1", workload: "pmf-a",
		startAt: 2 * time.Second, give: 1, warm: 2, demand: 3,
		job: &core.Job{Spec: core.Spec{Workers: 2, MaxSteps: 10}},
	}
}

func TestUntemplatedKeyIsTranslationInvariant(t *testing.T) {
	// An untemplated job that none of the four exclusions touch is keyed
	// by its arrival, shrink and warm count alone: moving it in time, in
	// the job numbering or to another tenant keeps its key, changing
	// what it executes does not.
	c := keyCtx()
	if !c.memoable() {
		t.Fatal("an untemplated plain job is not memoable")
	}
	moved := c
	moved.startAt, moved.num, moved.tenant = 9*time.Second, 12, "t3"
	if moved.key() != c.key() {
		t.Fatalf("key moved with start, number or tenant: %+v vs %+v", moved.key(), c.key())
	}
	for name, mut := range map[string]func(*execCtx){
		"arrSeq": func(x *execCtx) { x.arrSeq++ },
		"give":   func(x *execCtx) { x.give++ },
		"warm":   func(x *execCtx) { x.warm++ },
	} {
		d := c
		mut(&d)
		if d.key() == c.key() {
			t.Fatalf("a different %s keeps the key %+v", name, c.key())
		}
	}
	// No template key, however chosen, names the arrival's slot.
	for _, tk := range []string{"3", "a", "a\x003", "\x00a\x003"} {
		d := c
		d.tmplKey = tk
		if d.key() == c.key() || d.memoID() == c.memoID() {
			t.Fatalf("template key %q collides with arrival %d's key %+v", tk, c.arrSeq, c.key())
		}
	}
}

func TestExcludedJobsKeepExactKeys(t *testing.T) {
	// Traced, faulted, auto-tuned and wall-clock-bounded jobs read
	// absolute virtual time or names: they keep exact keys, templated or
	// not, and submit refuses them until certain.
	for name, mut := range map[string]func(*execCtx){
		"traced":       func(x *execCtx) { x.job.Trace = trace.New() },
		"faulted":      func(x *execCtx) { x.job.Spec.Faults = hostileFaults(1) },
		"autotune":     func(x *execCtx) { x.job.Spec.AutoTune = true },
		"maxwallclock": func(x *execCtx) { x.job.Spec.MaxWallClock = time.Minute },
	} {
		for _, tk := range []string{"", "pmf-a"} {
			c := keyCtx()
			c.tmplKey = tk
			mut(&c)
			if c.memoable() {
				t.Fatalf("%s (template %q) is memoable", name, tk)
			}
			moved := c
			moved.startAt += time.Second
			if moved.key() == c.key() {
				t.Fatalf("%s (template %q): exact key ignores the start time", name, tk)
			}
			ex := newExecutor(nil, 0)
			ex.submit(c)
			if len(ex.queue) != 0 || len(ex.entries) != 0 {
				t.Fatalf("%s (template %q): uncertain context was submitted", name, tk)
			}
			c.certain = true
			ex.submit(c)
			if len(ex.queue) != 1 || ex.entries[c.key()] == nil {
				t.Fatalf("%s (template %q): certain context was not submitted", name, tk)
			}
			ex.close()
		}
	}
}

func TestTrimKeepsOnlyTheLatestPass(t *testing.T) {
	// Each pass replaces the backlog: after pass B only B's unstarted
	// contexts are queued, in admission order; A's dropped keys can be
	// submitted again; running and finished executions are never
	// dropped. No pool goroutine drains the queue — the test plays the
	// worker with next and finish.
	ex := newExecutor(nil, 0)
	defer ex.close()
	ctx := func(idx, arrSeq, warm int, certain bool) execCtx {
		c := keyCtx()
		c.idx, c.arrSeq, c.warm, c.certain = idx, arrSeq, warm, certain
		return c
	}
	passA := []execCtx{ctx(0, 0, 2, true), ctx(1, 1, 2, false), ctx(2, 2, 2, false), ctx(3, 3, 2, false)}
	ex.trim()
	for _, c := range passA {
		ex.submit(c)
	}
	if len(ex.queue) != len(passA) {
		t.Fatalf("%d of pass A's %d contexts queued", len(ex.queue), len(passA))
	}
	done := ex.next()
	ex.finish(done, &outcome{ran: done.ctx, res: &core.Result{ID: done.ctx.id()}, finalWarm: 3}, nil)
	running := ex.next()
	if done.key != passA[0].key() || running.key != passA[1].key() {
		t.Fatalf("executions started out of admission order: %+v, %+v", done.key, running.key)
	}
	dropped := ex.entries[passA[3].key()]

	// Pass B agrees on admissions 0, 1 and 3 and predicts another warm
	// count for admission 2.
	passB := []execCtx{passA[0], passA[1], ctx(2, 2, 1, false), passA[3]}
	ex.trim()
	if ex.entries[passA[2].key()] != nil || ex.entries[passA[3].key()] != nil {
		t.Fatal("trim kept a queued-but-unstarted entry")
	}
	for _, c := range passB {
		ex.submit(c)
	}
	var queued []execKey
	for _, e := range ex.queue {
		queued = append(queued, e.key)
	}
	if want := []execKey{passB[2].key(), passB[3].key()}; !reflect.DeepEqual(queued, want) {
		t.Fatalf("queue holds %+v, want pass B's unstarted contexts %+v", queued, want)
	}
	if e := ex.entries[passA[3].key()]; e == nil || e == dropped {
		t.Fatal("a dropped key was not resubmitted as a fresh entry")
	}
	if ex.entries[done.key] != done || ex.entries[running.key] != running {
		t.Fatal("trim dropped a finished or running execution")
	}
	if ex.started != 2 {
		t.Fatalf("%d executions started, want 2", ex.started)
	}
}

// BenchmarkFleetStripped runs a template-stripped fleet — every
// admission keyed by its own arrival — at the default HostPar and
// reports how many executions each arrival cost, speculative runs the
// final pass discarded included. 1 means no speculation was wasted.
func BenchmarkFleetStripped(b *testing.B) {
	c := fleetCase{seed: 23, cap: 8, jobs: 12, strip: true}
	var runs, arrivals int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg, _ := c.build(b)
		f, err := newFleet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ex := newExecutor(f, f.hostPar())
		_, err = f.runOn(ex)
		ex.close()
		if err != nil {
			b.Fatal(err)
		}
		runs += ex.started // close has joined the pool
		arrivals += len(cfg.Arrivals)
	}
	b.ReportMetric(float64(runs)/float64(arrivals), "executions/arrival")
}

// eagerTranslate is the outcome translation the decision pass made on
// every admission before passes read cached outcomes untranslated: shift
// absolute times by the start-time delta and relabel the namespace, the
// bill total recomputed in the renamed sort order, exactly as
// cost.Meter.Report would have summed it for a native run under the
// target namespace. It is kept as the oracle the pass ledger is pinned
// against.
func eagerTranslate(src *outcome, from, to execCtx) *outcome {
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

// settledPass settles a fleet on a pool of par goroutines and returns
// its final pass unfolded, with the fleet and the executor whose cache
// the pass resolves from. The pool is closed when the test ends.
func settledPass(tb testing.TB, cfg Config, par int) (*fleet, *pass, *executor) {
	tb.Helper()
	f, err := newFleet(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ex := newExecutor(f, par)
	tb.Cleanup(ex.close)
	p := f.newPass()
	if err := f.settle(ex, p); err != nil {
		tb.Fatal(err)
	}
	return f, p, ex
}

// sameRecord reports whether two job records are equal bit for bit.
func sameRecord(a, b JobRecord) bool {
	return a == b && math.Float64bits(a.FunctionDollars) == math.Float64bits(b.FunctionDollars) &&
		math.Float64bits(a.FinalLoss) == math.Float64bits(b.FinalLoss)
}

// sameEvent compares the exported fields of two log events.
func sameEvent(a, b Event) bool {
	return a.At == b.At && a.Kind == b.Kind && a.Tenant == b.Tenant && a.Job == b.Job && a.Detail == b.Detail
}

func TestPassLedgerMatchesEagerTranslation(t *testing.T) {
	// Every record and event of the final pass must be what eagerly
	// translating each admission's cached execution onto it produces:
	// instants shifted by the start-time delta, the namespace relabelled,
	// the function share summed in the renamed order. Records, events and
	// bills are built here from the translated outcome the way the pass
	// once built them, independently of how the pass builds them now.
	for _, c := range goldenCases {
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/host-par-%d", c.name, par), func(t *testing.T) {
				cfg, _ := c.build(t)
				_, p, ex := settledPass(t, cfg, par)
				arrivals, events := p.arrivals, p.renderEvents()
				byJob := map[string][]Event{}
				for _, ev := range events {
					if ev.Kind != "arrive" {
						byJob[ev.Job] = append(byJob[ev.Job], ev)
					}
				}
				for i, ctx := range p.ctxs {
					e := ex.entries[ctx.key()]
					tr := eagerTranslate(e.out, e.ctx, ctx)
					res, arr := tr.res, arrivals[ctx.arrSeq]
					wait := ctx.startAt - arr.At
					want := JobRecord{
						ID: res.ID, Tenant: ctx.tenant, Workload: ctx.workload,
						ArriveAt: arr.At, AdmitAt: ctx.startAt, CompleteAt: ctx.startAt + res.ExecTime,
						Wait: wait, Exec: res.ExecTime,
						Workers: arr.Job.Spec.Workers, Shrunk: len(res.Removals),
						FunctionTime: functionTime(res), FunctionDollars: functionDollars(res),
						Converged: res.Converged, FinalLoss: res.FinalLoss, Steps: res.Steps,
					}
					if !sameRecord(p.jobs[i], want) {
						t.Fatalf("admission %d: pass records\n%+v\neager translation gives\n%+v", i, p.jobs[i], want)
					}

					evs := []Event{{At: ctx.startAt, Kind: "admit", Tenant: ctx.tenant, Job: res.ID,
						Detail: fmt.Sprintf("workload=%s demand=%d waited=%.3fs", ctx.workload, ctx.demand, wait.Seconds())}}
					if ctx.give > 0 {
						evs = append(evs, Event{At: ctx.startAt, Kind: "shrink-request", Tenant: ctx.tenant, Job: res.ID,
							Detail: fmt.Sprintf("give=%d", ctx.give)})
					}
					for _, rm := range res.Removals {
						evs = append(evs, Event{At: rm.Time, Kind: "scale-in", Tenant: ctx.tenant, Job: res.ID,
							Detail: fmt.Sprintf("worker=%d left=%d", rm.Worker, rm.WorkersLeft)})
					}
					evs = append(evs, Event{At: ctx.startAt + res.ExecTime, Kind: "complete", Tenant: ctx.tenant, Job: res.ID,
						Detail: fmt.Sprintf("workload=%s steps=%d converged=%v loss=%.6f", ctx.workload, res.Steps, res.Converged, res.FinalLoss)})
					got := byJob[res.ID]
					if len(got) != len(evs) {
						t.Fatalf("admission %d: %d events in the pass, eager translation gives %d", i, len(got), len(evs))
					}
					for k := range evs {
						if !sameEvent(got[k], evs[k]) {
							t.Fatalf("admission %d event %d: pass logs %q, eager translation gives %q", i, k, got[k], evs[k])
						}
					}

					if billed := translateOutcome(p.outs[i], ctx); !reflect.DeepEqual(billed, tr.billed) {
						t.Fatalf("admission %d: bill relabels to %v, eager translation gives %v", i, billed, tr.billed)
					}
				}
				var arrives []Event
				for _, ev := range events {
					if ev.Kind == "arrive" {
						arrives = append(arrives, ev)
					}
				}
				if len(arrives) != len(arrivals) {
					t.Fatalf("%d arrive events for %d arrivals", len(arrives), len(arrivals))
				}
				for k, a := range arrivals {
					want := Event{At: a.At, Kind: "arrive", Tenant: a.Tenant, Job: a.Workload,
						Detail: fmt.Sprintf("demand=%d", a.Job.Spec.Workers+1)}
					if !sameEvent(arrives[k], want) {
						t.Fatalf("arrival %d: pass logs %q, want %q", k, arrives[k], want)
					}
				}
			})
		}
	}
}

// cachedFleet settles a templated fleet of n arrivals spaced apart
// over the two pmfTemplate workloads (cap 8, three tenants at quota 4):
// its final pass, and the executor holding every outcome the pass
// resolves from, so any further pass over it is all-exact. Jobs run
// about a second, so at a second apart admissions queue for ~0.4 s on
// average and scale-in requests fire; at 200 ms apart the queue grows
// hundreds deep.
func cachedFleet(tb testing.TB, n int, spacing time.Duration) (*fleet, *pass, *executor) {
	tb.Helper()
	cfg, _ := testFleet(tb, 11, 8, 1)
	mix := []Template{pmfTemplate("pmf-a", 30, 2, 25), pmfTemplate("pmf-b", 30, 3, 30)}
	arrivals, err := GenerateArrivals(11, []string{"t1", "t2", "t3"}, mix, n, spacing)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Arrivals = arrivals
	return settledPass(tb, cfg, 2)
}

func TestDecisionPassAllocsBounded(t *testing.T) {
	// A repeat pass over a fully cached fleet (300 admissions, 1044
	// events) refills the previous pass's ledgers in place, keys the
	// cache with comparable structs, reads each outcome untranslated and
	// records events as fields. What it allocates is each admission's
	// namespace string, core.JobNamespace's Sprintf: the string and the
	// boxed tenant name, plus the boxed job number once numbers pass
	// 255 — 2·300 + 45 = 645 measured, 2.15 per admission. Rendering
	// the details, one string per event, is the fold's, once. The pass
	// that translated every outcome and formatted every key and detail
	// allocated 34.6 per admission on this fleet (10374 per pass).
	const perAdmission = 3
	f, p, ex := cachedFleet(t, 300, time.Second)
	allocs := testing.AllocsPerRun(5, func() { f.runPass(p, ex.resolve) })
	if !p.exact {
		t.Fatal("a pass over a fully cached fleet is not exact")
	}
	if allocs > perAdmission*float64(len(p.ctxs)) {
		t.Fatalf("a cached pass allocated %.0f times over %d admissions and %d events, want at most %d per admission",
			allocs, len(p.ctxs), len(p.events), perAdmission)
	}
}

// BenchmarkDecisionPass times one decision pass over a fully cached
// 2000-arrival templated fleet: the control plane's own cost per
// admission once every outcome is known. Arrivals come a second apart
// ("spaced", short queues) or 200 ms apart ("contended", where every
// admission attempt scans a queue hundreds deep).
func BenchmarkDecisionPass(b *testing.B) {
	for _, tc := range []struct {
		name    string
		spacing time.Duration
	}{{"spaced", time.Second}, {"contended", 200 * time.Millisecond}} {
		b.Run(tc.name, func(b *testing.B) {
			f, p, ex := cachedFleet(b, 2000, tc.spacing)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.runPass(p, ex.resolve)
			}
			b.StopTimer()
			if !p.exact {
				b.Fatal("a pass over a fully cached fleet is not exact")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(p.ctxs)), "ns/admission")
		})
	}
}
