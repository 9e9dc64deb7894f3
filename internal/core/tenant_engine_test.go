package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/faas"
	"mlless/internal/sched"
)

func TestStartAtShiftsTimeline(t *testing.T) {
	// A job launched at a later virtual instant must produce the exact
	// same training trajectory, only translated in time: the control
	// plane schedules jobs by shifting StartAt, and any drift here would
	// break fleet determinism.
	const shift = 30 * time.Second
	cl0, job0 := testPMFJob(t, 3, Spec{MaxSteps: 20})
	base, err := Run(cl0, job0)
	if err != nil {
		t.Fatal(err)
	}
	cl1, job1 := testPMFJob(t, 3, Spec{MaxSteps: 20, StartAt: shift})
	late, err := Run(cl1, job1)
	if err != nil {
		t.Fatal(err)
	}

	if base.Steps != late.Steps || base.FinalLoss != late.FinalLoss {
		t.Fatalf("shifted run diverged: steps %d vs %d, loss %v vs %v",
			base.Steps, late.Steps, base.FinalLoss, late.FinalLoss)
	}
	if base.ExecTime != late.ExecTime {
		t.Fatalf("ExecTime must exclude the launch offset: %v vs %v", base.ExecTime, late.ExecTime)
	}
	for i := range base.History {
		b, l := base.History[i], late.History[i]
		if l.Time != b.Time+shift {
			t.Fatalf("step %d barrier at %v, want %v+%v", b.Step, l.Time, b.Time, shift)
		}
		if l.Loss != b.Loss || l.Workers != b.Workers || l.Duration != b.Duration {
			t.Fatalf("step %d trace differs beyond the time shift", b.Step)
		}
	}
	if base.Cost.Total != late.Cost.Total {
		t.Fatalf("bill changed with launch time: $%v vs $%v", base.Cost.Total, late.Cost.Total)
	}
}

func TestTenantNamespacesBillingLabels(t *testing.T) {
	// Tenant jobs bill under "<tenant>/jobN/..." so a shared meter can be
	// split per tenant by label prefix; standalone jobs keep the bare
	// "jobN/..." labels (and the seed's byte-identical traces).
	cl, job := testPMFJob(t, 2, Spec{MaxSteps: 4, Tenant: "acme"})
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	fns := 0
	for _, c := range res.Cost.Components {
		if c.Kind != "function" {
			continue
		}
		fns++
		if !strings.HasPrefix(c.Name, "acme/job1/") {
			t.Fatalf("tenant function billed as %q, want acme/job1/ prefix", c.Name)
		}
	}
	if fns == 0 {
		t.Fatal("no function components on the bill")
	}

	// A second, standalone job on the same cluster: the job counter is
	// cluster-wide, so namespaces stay disjoint across tenants.
	job2 := job
	job2.Spec.Tenant = ""
	res2, err := Run(cl, job2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res2.Cost.Components {
		if c.Kind == "function" && !strings.HasPrefix(c.Name, "job2/") {
			t.Fatalf("standalone function billed as %q, want job2/ prefix", c.Name)
		}
	}
}

func TestShrinkDirectiveEvictsAfterKnee(t *testing.T) {
	// A control-plane shrink request due at virtual time 0 must wait for
	// the knee (removing workers before it stalls convergence, §4.2) and
	// then evict exactly the requested count — with AutoTune off, so the
	// removals are attributable to the directive alone.
	spec := Spec{
		Sync: consistency.ISP, Significance: 0.5,
		TargetLoss: 0.73, MaxSteps: 4000,
		Sched:  sched.Config{Epoch: 300 * time.Millisecond, S: 0.1},
		Shrink: []ShrinkDirective{{At: 0, Workers: 2}},
	}
	cl, job := testPMFJob(t, 8, spec)
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("shrunk run did not converge (final %v)", res.FinalLoss)
	}
	if len(res.Removals) != 2 {
		t.Fatalf("directive asked for 2 removals, got %d", len(res.Removals))
	}
	last := res.History[len(res.History)-1]
	if last.Workers != 6 {
		t.Fatalf("final pool %d, want 6", last.Workers)
	}
	// The directive was due at t=0 but honored only post-knee: the first
	// steps must still run at full width.
	if res.History[0].Workers != 8 {
		t.Fatalf("pool shrank at step 1 (width %d), before any knee", res.History[0].Workers)
	}
}

func TestShrinkRespectsMinWorkersInEngine(t *testing.T) {
	// An oversized shrink request stops at the MinWorkers floor instead
	// of draining the pool.
	spec := Spec{
		Sync: consistency.ISP, Significance: 0.5,
		TargetLoss: 0.73, MaxSteps: 4000,
		Sched:  sched.Config{Epoch: 300 * time.Millisecond, S: 0.1, MinWorkers: 5},
		Shrink: []ShrinkDirective{{At: 0, Workers: 100}},
	}
	cl, job := testPMFJob(t, 8, spec)
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removals) != 3 {
		t.Fatalf("floor 5 from 8 workers allows 3 removals, got %d", len(res.Removals))
	}
	last := res.History[len(res.History)-1]
	if last.Workers != 5 {
		t.Fatalf("final pool %d, want the MinWorkers floor 5", last.Workers)
	}
}

func TestInvokeQuotaRetryBacksOffDeterministically(t *testing.T) {
	// A quota-rejected invocation retries with seeded backoff and books
	// every wait as restart overhead; with no capacity freeing it gives
	// up after maxInvokeAttempts with the quota error intact.
	cl := NewCluster()
	cl.Platform.SetQuota("t1", 1)
	if _, err := cl.Platform.Invoke("t1/job0/squatter", 256, 0); err != nil {
		t.Fatal(err)
	}
	e := &engine{cl: cl}
	_, err := e.invokeAt("t1/job1/worker-0", 256, 0, false)
	if !errors.Is(err, faas.ErrTooManyConcurrent) {
		t.Fatalf("exhausted retries returned %v, want ErrTooManyConcurrent", err)
	}
	if got := e.recovery.InvokeRetries; got != maxInvokeAttempts-1 {
		t.Fatalf("InvokeRetries = %d, want %d", got, maxInvokeAttempts-1)
	}
	var want time.Duration
	for a := 1; a < maxInvokeAttempts; a++ {
		want += quotaBackoff("t1/job1/worker-0", a)
	}
	if e.recovery.RestartTime != want {
		t.Fatalf("RestartTime = %v, want the summed backoffs %v", e.recovery.RestartTime, want)
	}

	// The jitter is a pure function of (name, attempt): same inputs, same
	// wait; different names desynchronize.
	if quotaBackoff("a", 3) != quotaBackoff("a", 3) {
		t.Fatal("quotaBackoff not deterministic")
	}
	if quotaBackoff("a", 3) == quotaBackoff("b", 3) {
		t.Fatal("per-name jitter collapsed: concurrent admits would stampede")
	}
	for a := 1; a <= 4; a++ {
		base := quotaRetryBase << (a - 1)
		got := quotaBackoff("x", a)
		if got < base || got > base+base/2 {
			t.Fatalf("attempt %d backoff %v outside [%v, %v]", a, got, base, base+base/2)
		}
	}
}

func TestRunUnderExactQuotaSucceeds(t *testing.T) {
	// A tenant quota with exactly enough slots for supervisor + workers
	// admits the job without retries; one slot short, the launch backs
	// off and ultimately surfaces the quota error.
	cl, job := testPMFJob(t, 2, Spec{MaxSteps: 3, Tenant: "t1"})
	cl.Platform.SetQuota("t1", 3) // sup + 2 workers
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.InvokeRetries != 0 {
		t.Fatalf("exact-fit quota caused %d retries", res.Recovery.InvokeRetries)
	}

	cl2, job2 := testPMFJob(t, 2, Spec{MaxSteps: 3, Tenant: "t1"})
	cl2.Platform.SetQuota("t1", 2)
	if _, err := Run(cl2, job2); !errors.Is(err, faas.ErrTooManyConcurrent) {
		t.Fatalf("undersized quota returned %v, want ErrTooManyConcurrent", err)
	}
}

func TestTenancySpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want error
	}{
		{"slash in tenant", Spec{Tenant: "a/b"}, ErrBadTenant},
		{"negative start", Spec{StartAt: -time.Second}, ErrNegativeStart},
		{"shrink under async", Spec{Sync: consistency.Async, Staleness: 4,
			Shrink: []ShrinkDirective{{At: 0, Workers: 1}}}, ErrAsyncShrink},
		{"shrink zero workers", Spec{Shrink: []ShrinkDirective{{At: 0, Workers: 0}}}, ErrBadShrink},
		{"shrink negative time", Spec{Shrink: []ShrinkDirective{{At: -time.Second, Workers: 1}}}, ErrBadShrink},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, job := testPMFJob(t, 2, tc.spec)
			if _, err := Run(cl, job); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}
