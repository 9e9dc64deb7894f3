package faas

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlless/internal/cost"
	"mlless/internal/faults"
)

func TestInvokeColdThenWarm(t *testing.T) {
	p := NewPlatform(DefaultConfig())
	inst, err := p.Invoke("w0", 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Clock.Now() != DefaultConfig().ColdStart {
		t.Fatalf("first invocation start latency %v", inst.Clock.Now())
	}
	if err := p.Terminate(inst); err != nil {
		t.Fatal(err)
	}
	warm, err := p.Invoke("w1", 2048, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Clock.Now(); got != time.Second+DefaultConfig().WarmStart {
		t.Fatalf("warm invocation clock %v", got)
	}
	reg := p.Registry()
	if cold, warmN, inv := reg.Counter("faas.cold_starts").Load(), reg.Counter("faas.warm_starts").Load(), reg.Counter("faas.invocations").Load(); cold != 1 || warmN != 1 || inv != 2 {
		t.Fatalf("cold=%d warm=%d invocations=%d", cold, warmN, inv)
	}
}

func TestMemoryLimit(t *testing.T) {
	p := NewPlatform(DefaultConfig())
	if _, err := p.Invoke("big", 4096, 0); !errors.Is(err, ErrTooMuchMemory) {
		t.Fatalf("err = %v", err)
	}
	if _, err := p.Invoke("neg", 0, 0); !errors.Is(err, ErrTooMuchMemory) {
		t.Fatalf("err = %v", err)
	}
}

func TestCPUShare(t *testing.T) {
	p := NewPlatform(DefaultConfig())
	cases := []struct {
		mem  int
		want float64
	}{
		{2048, 1.0},
		{1024, 0.5},
		{512, 0.25},
		{256, 0.125},
	}
	for _, c := range cases {
		inst, err := p.Invoke("w", c.mem, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := inst.CPUShare(); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("CPUShare(%d MiB) = %v, want %v", c.mem, got, c.want)
		}
	}
}

func TestElapsedAndLimit(t *testing.T) {
	cfg := DefaultConfig()
	p := NewPlatform(cfg)
	inst, _ := p.Invoke("w", 2048, time.Minute)
	base := inst.Elapsed()
	inst.Clock.Advance(5 * time.Minute)
	if inst.Elapsed() != base+5*time.Minute {
		t.Fatalf("Elapsed = %v", inst.Elapsed())
	}
	if err := inst.CheckLimit(cfg); err != nil {
		t.Fatalf("under-limit instance errored: %v", err)
	}
	inst.Clock.Advance(6 * time.Minute)
	if err := inst.CheckLimit(cfg); !errors.Is(err, ErrOverLimit) {
		t.Fatalf("over-limit err = %v", err)
	}
}

func TestTerminateTwice(t *testing.T) {
	p := NewPlatform(DefaultConfig())
	inst, _ := p.Invoke("w", 2048, 0)
	if err := p.Terminate(inst); err != nil {
		t.Fatal(err)
	}
	if err := p.Terminate(inst); !errors.Is(err, ErrTerminated) {
		t.Fatalf("double terminate err = %v", err)
	}
}

func TestRunningCount(t *testing.T) {
	p := NewPlatform(DefaultConfig())
	a, _ := p.Invoke("a", 2048, 0)
	b, _ := p.Invoke("b", 2048, 0)
	if p.Running() != 2 {
		t.Fatalf("Running = %d", p.Running())
	}
	_ = p.Terminate(a)
	if p.Running() != 1 {
		t.Fatalf("Running = %d", p.Running())
	}
	_ = p.Terminate(b)
	if p.Running() != 0 {
		t.Fatalf("Running = %d", p.Running())
	}
}

func TestBilling(t *testing.T) {
	p := NewPlatform(DefaultConfig())
	inst, _ := p.Invoke("worker-0", 2048, 0)
	inst.Clock.Advance(100 * time.Second)
	var m cost.Meter
	_ = p.TerminateInto(inst, &m)

	billed := inst.Elapsed().Seconds()
	want := cost.PriceFunctionPerGBSecond * 2 * billed
	if got := m.Report().Total; math.Abs(got-want) > 1e-9 {
		t.Fatalf("billed %v, want %v", got, want)
	}
	if p.BilledFunctionSeconds() != inst.Elapsed() {
		t.Fatalf("BilledFunctionSeconds = %v", p.BilledFunctionSeconds())
	}
}

func TestLiveInstancesNotBilled(t *testing.T) {
	p := NewPlatform(DefaultConfig())
	inst, _ := p.Invoke("w", 2048, 0)
	inst.Clock.Advance(time.Hour)
	if runs := p.BilledRuns(); len(runs) != 0 || p.BilledFunctionSeconds() != 0 {
		t.Fatalf("live instance was billed: %+v", runs)
	}
}

func TestHalfMemoryBilledAtHalfRate(t *testing.T) {
	p := NewPlatform(DefaultConfig())
	full, _ := p.Invoke("full", 2048, 0)
	half, _ := p.Invoke("half", 1024, 0)
	full.Clock.Advance(100 * time.Second)
	half.Clock.Advance(100 * time.Second)
	var m cost.Meter
	_ = p.TerminateInto(full, &m)
	_ = p.TerminateInto(half, &m)
	r := m.Report()
	var fullCost, halfCost float64
	for _, c := range r.Components {
		switch c.Name {
		case "full":
			fullCost = c.Dollars
		case "half":
			halfCost = c.Dollars
		}
	}
	if math.Abs(fullCost-2*halfCost) > 1e-9 {
		t.Fatalf("full=%v half=%v", fullCost, halfCost)
	}
}

func TestIDsUnique(t *testing.T) {
	p := NewPlatform(DefaultConfig())
	seen := make(map[int]bool)
	for i := 0; i < 50; i++ {
		inst, err := p.Invoke("w", 2048, 0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[inst.ID] {
			t.Fatalf("duplicate ID %d", inst.ID)
		}
		seen[inst.ID] = true
	}
}

func TestConcurrencyLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 2
	p := NewPlatform(cfg)
	a, err := p.Invoke("a", 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("b", 2048, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("c", 2048, 0); !errors.Is(err, ErrTooManyConcurrent) {
		t.Fatalf("third invocation: err = %v", err)
	}
	// Terminating frees a slot.
	if err := p.Terminate(a); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("c", 2048, 0); err != nil {
		t.Fatalf("after terminate: %v", err)
	}
}

func TestConcurrencyUnlimitedWhenZero(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 0
	p := NewPlatform(cfg)
	for i := 0; i < 1200; i++ {
		if _, err := p.Invoke("w", 256, 0); err != nil {
			t.Fatalf("invocation %d: %v", i, err)
		}
	}
}

// --- fault injection ---

func TestInjectedInvocationFailure(t *testing.T) {
	p := NewPlatform(DefaultConfig())
	p.SetFaults(faults.New(faults.Spec{Seed: 1, InvokeFailProb: 1}))
	if _, err := p.Invoke("w", 2048, 0); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	reg := p.Registry()
	if failed, inv := reg.Counter("faas.failed_invocations").Load(), reg.Counter("faas.invocations").Load(); failed != 1 || inv != 0 {
		t.Fatalf("failed=%d invocations=%d", failed, inv)
	}
}

func TestStragglerStretchesColdStart(t *testing.T) {
	in := faults.New(faults.Spec{Seed: 3, StragglerProb: 1})
	p := NewPlatform(DefaultConfig())
	p.SetFaults(in)
	inst, err := p.Invoke("w", 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold := DefaultConfig().ColdStart
	if got := inst.Clock.Now(); got < cold {
		t.Fatalf("straggler cold start %v below the nominal %v", got, cold)
	}
	if cap := time.Duration(float64(cold) * faults.DefaultStragglerCap); inst.Clock.Now() > cap {
		t.Fatalf("straggler %v beyond the cap %v", inst.Clock.Now(), cap)
	}
	if m := in.Metrics(); m.Stragglers != 1 {
		t.Fatalf("Stragglers = %d, want 1", m.Stragglers)
	}
}

func TestReclaimBillsOnlyToReclaimPoint(t *testing.T) {
	p := NewPlatform(DefaultConfig())
	p.SetFaults(faults.New(faults.Spec{Seed: 4, ReclaimProb: 1, ReclaimMeanLife: 30 * time.Second}))
	inst, err := p.Invoke("w", 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inst.ReclaimAt == 0 {
		t.Fatal("no reclamation scheduled at probability 1")
	}
	// The engine keeps charging past the death before noticing it; that
	// work is void and must not be paid for.
	inst.Clock.AdvanceTo(inst.ReclaimAt + time.Minute)
	var m cost.Meter
	if err := p.Reclaim(inst, &m); err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	if len(rep.Components) != 1 {
		t.Fatalf("components = %+v", rep.Components)
	}
	lived := inst.ReclaimAt - inst.StartedAt()
	if rep.Components[0].Duration != lived {
		t.Fatalf("billed %v, want %v", rep.Components[0].Duration, lived)
	}
	if n := p.Registry().Counter("faas.reclaimed").Load(); n != 1 {
		t.Fatalf("reclaimed = %d", n)
	}
	// Reclaim metered the run, so the platform's bill marks it claimed.
	if runs := p.BilledRuns(); len(runs) != 1 || !runs[0].Claimed || runs[0].Duration != lived {
		t.Fatalf("platform bill = %+v, want one claimed run of %v", runs, lived)
	}
	// A reclaimed container never rejoins the warm pool.
	p.SetFaults(nil)
	next, err := p.Invoke("w2", 2048, inst.ReclaimAt)
	if err != nil {
		t.Fatal(err)
	}
	if got := next.Clock.Now() - inst.ReclaimAt; got != DefaultConfig().ColdStart {
		t.Fatalf("post-reclaim start latency %v, want the cold %v", got, DefaultConfig().ColdStart)
	}
}

func TestNamespaceOf(t *testing.T) {
	cases := []struct{ name, want string }{
		{"job1/worker-3", "job1"},
		{"t2/job7/worker-0-r1", "t2"},
		{"supervisor", "supervisor"},
		{"", ""},
	}
	for _, c := range cases {
		if got := NamespaceOf(c.name); got != c.want {
			t.Errorf("NamespaceOf(%q) = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestQuotaExhaustion(t *testing.T) {
	p := NewPlatform(DefaultConfig())
	p.SetQuota("t1", 2)
	a, err := p.Invoke("t1/job1/worker-0", 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("t1/job1/worker-1", 256, 0); err != nil {
		t.Fatal(err)
	}
	// Third activation in t1 must bounce; other namespaces are untouched.
	if _, err := p.Invoke("t1/job2/worker-0", 256, 0); !errors.Is(err, ErrTooManyConcurrent) {
		t.Fatalf("over-quota invoke err = %v", err)
	}
	if _, err := p.Invoke("t2/job3/worker-0", 256, 0); err != nil {
		t.Fatalf("unrelated namespace rejected: %v", err)
	}
	if got := p.Registry().Counter("faas.quota_rejections").Load(); got != 1 {
		t.Fatalf("quota_rejections = %d, want 1", got)
	}
	// Terminate frees a slot: the namespace admits again.
	if err := p.Terminate(a); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("t1/job2/worker-0", 256, time.Second); err != nil {
		t.Fatalf("post-terminate invoke: %v", err)
	}
}

func TestQuotaReleasedOnReclaim(t *testing.T) {
	p := NewPlatform(DefaultConfig())
	p.SetQuota("t1", 1)
	inst, err := p.Invoke("t1/job1/worker-0", 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	var m cost.Meter
	if err := p.Reclaim(inst, &m); err != nil {
		t.Fatal(err)
	}
	// Quota 1: the relaunch is admitted only if the reclaim freed the slot.
	if _, err := p.Invoke("t1/job1/worker-0-r1", 256, time.Second); err != nil {
		t.Fatalf("post-reclaim invoke: %v", err)
	}
}

func TestQuotaAccountingAcrossTenants(t *testing.T) {
	p := NewPlatform(DefaultConfig())
	p.SetQuota("t1", 2)
	p.SetQuota("t2", 2)
	var insts []*Instance
	for _, name := range []string{"t1/job1/worker-0", "t1/job1/supervisor", "t2/job2/worker-0"} {
		inst, err := p.Invoke(name, 256, 0)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	// t1 is full, t2 has one slot left.
	if _, err := p.Invoke("t1/job1/worker-1", 256, 0); !errors.Is(err, ErrTooManyConcurrent) {
		t.Fatalf("third t1 activation: err = %v", err)
	}
	inst, err := p.Invoke("t2/job2/supervisor", 256, 0)
	if err != nil {
		t.Fatalf("second t2 activation: %v", err)
	}
	insts = append(insts, inst)
	for _, inst := range insts {
		if err := p.Terminate(inst); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Running(); got != 0 {
		t.Fatalf("%d activations still running after terminating all", got)
	}
	// SetQuota(ns, 0) removes the cap.
	p.SetQuota("t1", 0)
	for i := 0; i < 5; i++ {
		if _, err := p.Invoke("t1/job9/worker", 256, 0); err != nil {
			t.Fatalf("uncapped invoke %d: %v", i, err)
		}
	}
}

// TestConcurrentAdmitsRace drives concurrent invokes and terminations
// against a tight quota under -race: the platform must never exceed the
// caps and must end with clean accounting.
func TestConcurrentAdmitsRace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 16
	p := NewPlatform(cfg)
	p.SetQuota("t1", 8)
	p.SetQuota("t2", 8)

	// held counts, per namespace, activations this test knows to be live:
	// bumped after a successful invoke and dropped before the terminate,
	// so it never exceeds the platform's own count.
	held := map[string]*atomic.Int64{"t1": {}, "t2": {}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		ns := "t1"
		if g%2 == 1 {
			ns = "t2"
		}
		wg.Add(1)
		go func(g int, ns string) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				inst, err := p.Invoke(fmt.Sprintf("%s/job%d/worker-%d", ns, g, i), 256, 0)
				if err != nil {
					if !errors.Is(err, ErrTooManyConcurrent) {
						t.Errorf("invoke: %v", err)
					}
					continue
				}
				if got := held[ns].Add(1); got > 8 {
					t.Errorf("namespace %s over quota: %d", ns, got)
				}
				held[ns].Add(-1)
				if err := p.Terminate(inst); err != nil {
					t.Errorf("terminate: %v", err)
				}
			}
		}(g, ns)
	}
	wg.Wait()
	if got := p.Running(); got != 0 {
		t.Fatalf("%d activations running after drain", got)
	}
}
