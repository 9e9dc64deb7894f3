package substrate

import (
	"testing"
	"time"

	"mlless/internal/faults"
	"mlless/internal/netmodel"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// fastLink keeps arithmetic round: 1 ms latency, 1 MB/ms bandwidth.
func fastLink() netmodel.Link {
	return netmodel.Link{Latency: time.Millisecond, BandwidthBps: 1e9}
}

func newKV(reg *trace.Registry) *Pipeline {
	return New(Config{Link: fastLink(), Cat: trace.CatKV, KeyLabel: "key", Domain: DomainKV}, reg)
}

func TestChargeNominal(t *testing.T) {
	p := newKV(trace.NewRegistry())
	var clk vclock.Clock
	base := p.TransferTime(1000)
	p.Charge(&clk, "get", "k", 1000, base)
	if clk.Now() != base {
		t.Fatalf("charged %v, want %v", clk.Now(), base)
	}
}

// TestChargeSpikeGolden pins the latency-spike composition: a certain
// spike with factor f charges exactly f×base.
func TestChargeSpikeGolden(t *testing.T) {
	p := newKV(trace.NewRegistry())
	p.SetFaults(faults.New(faults.Spec{Seed: 1, KVSlowProb: 1, KVSlowFactor: 10}))
	var clk vclock.Clock
	base := 2 * time.Millisecond
	p.Charge(&clk, "get", "k", 0, base)
	if clk.Now() != 10*base {
		t.Fatalf("spiked charge = %v, want %v", clk.Now(), 10*base)
	}
}

// TestChargeRetryGolden pins the retry composition: with a certain
// failure probability the injector delivers maxOpRetries (5) failed
// attempts, each costing the retry penalty plus a re-execution.
func TestChargeRetryGolden(t *testing.T) {
	penalty := 50 * time.Millisecond
	p := newKV(trace.NewRegistry())
	p.SetFaults(faults.New(faults.Spec{Seed: 1, KVFailProb: 1, KVRetryPenalty: penalty}))
	var clk vclock.Clock
	base := 2 * time.Millisecond
	p.Charge(&clk, "set", "k", 0, base)
	want := base + 5*(penalty+base)
	if clk.Now() != want {
		t.Fatalf("retried charge = %v, want %v", clk.Now(), want)
	}
}

// TestCostMatchesCharge pins the fan-out contract: Cost must price an
// operation exactly as Charge would charge it, for the same start
// instant — that equivalence is what makes the object store's
// max-of-branches arithmetic consistent with the serial path.
func TestCostMatchesCharge(t *testing.T) {
	mk := func() *Pipeline {
		p := newKV(trace.NewRegistry())
		p.SetFaults(faults.New(faults.Spec{Seed: 7, KVFailProb: 0.3, KVSlowProb: 0.3}))
		return p
	}
	ops := []struct {
		op, key string
		base    time.Duration
	}{
		{"get", "a", time.Millisecond},
		{"mget", "b", 5 * time.Millisecond},
		{"set", "c", 3 * time.Millisecond},
		{"del", "a", time.Millisecond},
	}
	charged := mk()
	var clk vclock.Clock
	priced := mk()
	var virt time.Duration
	for _, o := range ops {
		cost := priced.Cost(o.op, o.key, virt, o.base)
		charged.Charge(&clk, o.op, o.key, 0, o.base)
		virt += cost
		if clk.Now() != virt {
			t.Fatalf("%s %s: Charge total %v, Cost total %v", o.op, o.key, clk.Now(), virt)
		}
	}
}

// TestDomainNoneIgnoresInjector proves a DomainNone pipeline never
// consults the injector (the object store's configuration).
func TestDomainNoneIgnoresInjector(t *testing.T) {
	p := New(Config{Link: fastLink(), Cat: trace.CatObj, KeyLabel: "key", Domain: DomainNone}, trace.NewRegistry())
	p.SetFaults(faults.New(faults.Spec{Seed: 1, KVFailProb: 1, MQFailProb: 1}))
	var clk vclock.Clock
	p.Charge(&clk, "get", "b/k", 0, time.Millisecond)
	if clk.Now() != time.Millisecond {
		t.Fatalf("DomainNone charged %v, want %v", clk.Now(), time.Millisecond)
	}
}

// TestDomainsDrawIndependently proves KV and MQ pipelines consult
// different fault streams for the same (op, key, time) identity.
func TestDomainsDrawIndependently(t *testing.T) {
	spec := faults.Spec{Seed: 3, KVSlowProb: 0.5, MQSlowProb: 0.5}
	kv := newKV(trace.NewRegistry())
	kv.SetFaults(faults.New(spec))
	mq := New(Config{Link: fastLink(), Cat: trace.CatMQ, KeyLabel: "queue", Domain: DomainMQ}, trace.NewRegistry())
	mq.SetFaults(faults.New(spec))

	differs := false
	for i := 0; i < 64 && !differs; i++ {
		at := time.Duration(i) * time.Second
		differs = kv.Cost("op", "k", at, time.Millisecond) != mq.Cost("op", "k", at, time.Millisecond)
	}
	if !differs {
		t.Fatal("KV and MQ domains drew identical faults at 64 instants")
	}
}

// TestChargeDeterminism proves equal pipelines charge identical totals
// for an identical operation sequence.
func TestChargeDeterminism(t *testing.T) {
	run := func() time.Duration {
		p := newKV(trace.NewRegistry())
		p.SetFaults(faults.New(faults.Spec{Seed: 11, KVFailProb: 0.2, KVSlowProb: 0.2}))
		var clk vclock.Clock
		for i := 0; i < 100; i++ {
			p.Charge(&clk, "get", "k"+string(rune('a'+i%7)), i, time.Duration(i+1)*time.Millisecond)
		}
		return clk.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("equal runs charged %v and %v", a, b)
	}
}

// TestDisabledPathAllocatesNothing is the zero-alloc guard: with no
// injector and no tracer the pipeline must not allocate per operation.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	p := newKV(trace.NewRegistry())
	var clk vclock.Clock
	if n := testing.AllocsPerRun(1000, func() {
		p.Charge(&clk, "get", "k", 100, time.Microsecond)
		p.ChargeUntraced(&clk, "keys", "k", time.Microsecond)
	}); n != 0 {
		t.Fatalf("disabled pipeline allocates %.1f times per op", n)
	}
}

func TestSpanRecordsFaultMultiplier(t *testing.T) {
	p := newKV(trace.NewRegistry())
	p.SetFaults(faults.New(faults.Spec{Seed: 1, KVSlowProb: 1, KVSlowFactor: 10}))
	tr := trace.New()
	p.SetTracer(tr)
	var clk vclock.Clock
	tr.RegisterClock(&clk, "w0")
	p.Charge(&clk, "get", "k", 42, time.Millisecond)

	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Cat != trace.CatKV || ev.Name != "get" || ev.Track != "w0" {
		t.Fatalf("span = %+v", ev)
	}
	if fx, ok := ev.ArgFloat("fault_x"); !ok || fx != 10 {
		t.Fatalf("fault_x = %v, %v; want 10", fx, ok)
	}
	if b, ok := ev.ArgInt("bytes"); !ok || b != 42 {
		t.Fatalf("bytes = %v, %v", b, ok)
	}
}

func TestTraceRangeEmitsExplicitInterval(t *testing.T) {
	p := newKV(trace.NewRegistry())
	tr := trace.New()
	p.SetTracer(tr)
	var clk vclock.Clock
	tr.RegisterClock(&clk, "w0")

	start, end := 3*time.Millisecond, 9*time.Millisecond
	p.TraceRange(&clk, "mget", "k", start, end, 2*time.Millisecond, 64)

	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Start != start || ev.Dur != end-start {
		t.Fatalf("interval [%v +%v], want [%v +%v]", ev.Start, ev.Dur, start, end-start)
	}
	if b, ok := ev.ArgInt("bytes"); !ok || b != 64 {
		t.Fatalf("bytes = %v, %v", b, ok)
	}
	// end-start (6 ms) ran past base (2 ms): the multiplier is appended.
	if fx, ok := ev.ArgFloat("fault_x"); !ok || fx != 3 {
		t.Fatalf("fault_x = %v, %v; want 3", fx, ok)
	}
}
