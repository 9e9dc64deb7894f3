package tenant

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"mlless/internal/core"
	"mlless/internal/cost"
	"mlless/internal/dataset"
	"mlless/internal/faas"
	"mlless/internal/model"
	"mlless/internal/optimizer"
	"mlless/internal/vclock"
)

// testCluster builds a shared substrate with a tiny MovieLens dataset
// staged under bucket "ml", capped at maxConcurrent activations.
func testCluster(t testing.TB, maxConcurrent int) (*core.Cluster, int) {
	t.Helper()
	cl := core.NewCluster()
	if maxConcurrent > 0 {
		cfg := cl.Platform.Config()
		cfg.MaxConcurrent = maxConcurrent
		cl.Platform = faas.NewPlatformWithRegistry(cfg, cl.Metrics)
	}
	cfg := dataset.MovieLensConfig{Users: 120, Items: 400, Ratings: 15000, Rank: 6, NoiseStd: 0.6, Seed: 7}
	ds := dataset.GenerateMovieLens(cfg)
	var clk vclock.Clock
	n := dataset.StageShards(ds, cl.COS, &clk, "ml", 500, dataset.DefaultBatchesPerShard, 3)
	return cl, n
}

// pmfTemplate stamps out small fixed-step PMF jobs over the staged
// bucket. Fresh model/optimizer per call.
func pmfTemplate(name string, batches, workers, steps int) Template {
	return Template{Name: name, Weight: 1, New: func() core.Job {
		return core.Job{
			Spec:       core.Spec{Workers: workers, MaxSteps: steps},
			Model:      model.NewPMF(120, 400, 6, 3.5, 0.02, 31),
			Optimizer:  optimizer.NewNesterov(optimizer.Constant(1.0), 0.9),
			Bucket:     "ml",
			NumBatches: batches,
			BatchSize:  500,
		}
	}}
}

func testFleet(t testing.TB, seed uint64, maxConcurrent, jobs int) (Config, []Arrival) {
	t.Helper()
	cl, n := testCluster(t, maxConcurrent)
	mix := []Template{pmfTemplate("pmf-a", n, 2, 25), pmfTemplate("pmf-b", n, 3, 30)}
	arrivals, err := GenerateArrivals(seed, []string{"t1", "t2", "t3"}, mix, jobs, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Cluster: cl,
		Tenants: []Tenant{{Name: "t1", Quota: 4}, {Name: "t2", Quota: 4}, {Name: "t3", Quota: 4}},
	}
	return cfg, arrivals
}

func TestFleetDeterministicAcrossRuns(t *testing.T) {
	// Two same-seed fleets on fresh clusters must emit byte-identical
	// control-plane logs and identical headline metrics.
	var logs [2]bytes.Buffer
	var reports [2]*Report
	for i := 0; i < 2; i++ {
		cfg, arrivals := testFleet(t, 42, 8, 9)
		cfg.Arrivals = arrivals
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteEvents(&logs[i]); err != nil {
			t.Fatal(err)
		}
		reports[i] = rep
	}
	if !bytes.Equal(logs[0].Bytes(), logs[1].Bytes()) {
		t.Fatalf("same-seed fleets diverged:\n--- run 0 ---\n%s--- run 1 ---\n%s", logs[0].String(), logs[1].String())
	}
	if reports[0].Makespan != reports[1].Makespan || reports[0].Jain != reports[1].Jain ||
		reports[0].FunctionTime != reports[1].FunctionTime {
		t.Fatal("same-seed fleets produced different reports")
	}
}

func TestFleetBillingSplitsExactly(t *testing.T) {
	// Per-tenant billed function time must sum to the platform's own
	// meter, and every run must already be claimed by a job meter —
	// no orphaned or double-counted GB-seconds.
	cfg, arrivals := testFleet(t, 7, 8, 8)
	cfg.Arrivals = arrivals
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var perTenant time.Duration
	for _, tr := range rep.Tenants {
		perTenant += tr.FunctionTime
	}
	platform := cfg.Cluster.Platform.BilledFunctionSeconds()
	if perTenant != platform {
		t.Fatalf("tenant bills sum to %v, platform metered %v", perTenant, platform)
	}
	if rep.FunctionTime != platform {
		t.Fatalf("report function time %v != platform %v", rep.FunctionTime, platform)
	}
	var orphans cost.Meter
	cfg.Cluster.Platform.BillTo(&orphans)
	if n := len(orphans.Report().Components); n != 0 {
		t.Fatalf("%d function runs were never claimed by any job's meter", n)
	}
}

func TestFleetContentionQueuesAndScalesIn(t *testing.T) {
	// A cap of 4 fits one 3-worker job (demand 4): overlapping arrivals
	// must queue, and jobs admitted while others wait get shrink
	// requests. With the cap at 1000 nothing waits.
	cfg, arrivals := testFleet(t, 11, 4, 8)
	cfg.Arrivals = arrivals
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waited := 0
	for _, j := range rep.Jobs {
		if j.Wait > 0 {
			waited++
		}
		if j.CompleteAt != j.AdmitAt+j.Exec || j.Wait != j.AdmitAt-j.ArriveAt {
			t.Fatalf("job %s milestones inconsistent: %+v", j.ID, j)
		}
	}
	if waited == 0 {
		t.Fatal("cap 4 with 200ms mean gaps produced no queueing")
	}
	shrinkReqs := 0
	for _, ev := range rep.Events {
		if ev.Kind == "shrink-request" {
			shrinkReqs++
		}
	}
	if shrinkReqs == 0 {
		t.Fatal("contended admissions issued no shrink requests")
	}
	if rep.Jain <= 0 || rep.Jain > 1 {
		t.Fatalf("Jain index %v outside (0,1]", rep.Jain)
	}
	if rep.P99Latency < rep.P50Latency {
		t.Fatalf("p99 %v below p50 %v", rep.P99Latency, rep.P50Latency)
	}

	cfgWide, arrivalsWide := testFleet(t, 11, 0, 8)
	cfgWide.Arrivals = arrivalsWide
	for i := range cfgWide.Tenants {
		cfgWide.Tenants[i].Quota = 0 // uncapped: platform cap (1000) only
	}
	wide, err := Run(cfgWide)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range wide.Jobs {
		if j.Wait != 0 {
			t.Fatalf("uncontended fleet queued job %s for %v", j.ID, j.Wait)
		}
	}
	if wide.Jain != 1 {
		t.Fatalf("uncontended fleet has Jain %v, want exactly 1", wide.Jain)
	}
}

func TestFleetEventLogOrderedAndLabelled(t *testing.T) {
	cfg, arrivals := testFleet(t, 3, 6, 6)
	cfg.Arrivals = arrivals
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rep.Events); i++ {
		if rep.Events[i].At < rep.Events[i-1].At {
			t.Fatalf("events out of order at %d: %v after %v", i, rep.Events[i].At, rep.Events[i-1].At)
		}
	}
	arrives, admits, completes := 0, 0, 0
	for _, ev := range rep.Events {
		switch ev.Kind {
		case "arrive":
			arrives++
		case "admit":
			admits++
			if !strings.HasPrefix(ev.Job, ev.Tenant+"/job") {
				t.Fatalf("admit event job %q not namespaced under tenant %q", ev.Job, ev.Tenant)
			}
		case "complete":
			completes++
		}
	}
	if arrives != 6 || admits != 6 || completes != 6 {
		t.Fatalf("event counts arrive=%d admit=%d complete=%d, want 6 each", arrives, admits, completes)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	cl, n := testCluster(t, 8)
	tpl := pmfTemplate("pmf", n, 2, 4)
	mk := func() Arrival { return Arrival{Tenant: "t1", Workload: "pmf", Job: tpl.New()} }

	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"nil cluster", Config{}, ErrNoCluster},
		{"unknown tenant", Config{Cluster: cl,
			Tenants:  []Tenant{{Name: "t1"}},
			Arrivals: []Arrival{{Tenant: "ghost", Job: tpl.New()}}}, ErrNoTenant},
		{"quota over platform cap", Config{Cluster: cl,
			Tenants: []Tenant{{Name: "t1", Quota: 9}}}, ErrBadQuota},
		{"negative quota", Config{Cluster: cl,
			Tenants: []Tenant{{Name: "t1", Quota: -1}}}, ErrBadQuota},
		{"duplicate tenant", Config{Cluster: cl,
			Tenants: []Tenant{{Name: "t1"}, {Name: "t1"}}}, ErrDupTenant},
		{"empty tenant name", Config{Cluster: cl,
			Tenants: []Tenant{{Name: ""}}}, core.ErrBadTenant},
		{"demand over quota", Config{Cluster: cl,
			Tenants:  []Tenant{{Name: "t1", Quota: 2}},
			Arrivals: []Arrival{mk()}}, ErrNeverFits},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.cfg); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}

	// Control-plane spec fields belong to the fleet.
	a := mk()
	a.Job.Spec.StartAt = time.Second
	if _, err := Run(Config{Cluster: cl, Tenants: []Tenant{{Name: "t1"}}, Arrivals: []Arrival{a}}); err == nil {
		t.Fatal("arrival with preset StartAt accepted")
	}
}

func TestGenerateArrivalsDeterministicAndValid(t *testing.T) {
	mix := []Template{pmfTemplate("a", 10, 2, 4), {Name: "b", Weight: 3, New: pmfTemplate("b", 10, 2, 4).New}}
	g1, err := GenerateArrivals(99, []string{"t1", "t2"}, mix, 40, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := GenerateArrivals(99, []string{"t1", "t2"}, mix, 40, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g1 {
		if g1[i].At != g2[i].At || g1[i].Tenant != g2[i].Tenant || g1[i].Workload != g2[i].Workload {
			t.Fatalf("same-seed schedules differ at %d", i)
		}
		if i > 0 && g1[i].At < g1[i-1].At {
			t.Fatalf("arrival times not monotone at %d", i)
		}
	}
	seenB := 0
	for _, a := range g1 {
		if a.Workload == "b" {
			seenB++
		}
	}
	// Weight 3-vs-1: workload b should dominate; any split is legal but
	// a zero draw for the 75% arm means the weighted pick is broken.
	if seenB == 0 || seenB == len(g1) {
		t.Fatalf("weighted mix degenerate: %d of %d draws for the 3x arm", seenB, len(g1))
	}

	if _, err := GenerateArrivals(1, nil, mix, 5, time.Second); err == nil {
		t.Fatal("no tenants accepted")
	}
	if _, err := GenerateArrivals(1, []string{"t"}, mix, 0, time.Second); err == nil {
		t.Fatal("zero arrivals accepted")
	}
	if _, err := GenerateArrivals(1, []string{"t"}, mix, 5, 0); err == nil {
		t.Fatal("zero mean gap accepted")
	}
	if _, err := GenerateArrivals(1, []string{"t"}, []Template{{Name: "x", Weight: 0}}, 5, time.Second); err == nil {
		t.Fatal("zero-weight template accepted")
	}
}
