package tenant

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mlless/internal/core"
	"mlless/internal/cost"
	"mlless/internal/exchange"
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
	// hostile makes every job traced, fault-injected and tree-exchanged:
	// all three memoable exclusions at once, with faults firing.
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
func (c fleetCase) build(t *testing.T) (cfg Config, tracers []*trace.Tracer) {
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
		if c.hostile {
			arrivals[i].Job.Spec.Exchange = exchange.KindTree
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
	arrivals := append([]Arrival(nil), cfg.Arrivals...)
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].At < arrivals[j].At })
	plat := f.cl.Platform
	p := f.runPass(arrivals, f.cl.ReserveJobIDs(len(arrivals)), plat.WarmPool(),
		func(ctx execCtx) (*outcome, bool, error) {
			before := plat.WarmPool()
			res, err := core.RunNumbered(f.cl, ctx.stamped(), ctx.num)
			if err != nil {
				return nil, false, err
			}
			return &outcome{res: res, finalWarm: ctx.warm + plat.WarmPool() - before}, true, nil
		})
	if p.err != nil {
		t.Fatal(p.err)
	}
	if p.warm != plat.WarmPool() {
		t.Fatalf("warm ledger says %d, the platform holds %d", p.warm, plat.WarmPool())
	}
	f.events, f.jobs = p.events, p.jobs
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
	// admission inline.
	for _, c := range []fleetCase{
		{name: "seed-7", seed: 7, cap: 8, jobs: 9},
		{name: "seed-23-contended", seed: 23, cap: 5, jobs: 8},
		{name: "seed-23-stripped", seed: 23, cap: 8, jobs: 6, strip: true},
		{name: "seed-7-hostile", seed: 7, cap: 6, jobs: 7, hostile: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := runReference(t, c).golden(t)
			for _, par := range []int{1, 4} {
				diffGolden(t, fmt.Sprintf("host-par %d", par), want, runEngine(t, c, par).golden(t))
			}
		})
	}
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
	// fleet state.
	at := 3 * time.Second
	rs := []release{
		{at: at, tenant: "t2", job: "t2/job5", n: 1, seq: 9},
		{at: at, tenant: "t1", job: "t1/job7", n: 2, seq: 8},
		{at: at, tenant: "t1", job: "t1/job2", n: 1, seq: 7},
		{at: at - time.Second, tenant: "t9", job: "t9/job9", n: 1, seq: 6},
		{at: at, tenant: "t1", job: "t1/job2", n: 3, seq: 5},
	}
	sort.SliceStable(rs, releaseLess(rs))
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
