package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/exchange"
	"mlless/internal/faults"
	"mlless/internal/sched"
)

// exchangeSpec returns a BSP spec running the named exchange strategy.
func exchangeSpec(kind string, fanout, maxSteps int) Spec {
	return Spec{MaxSteps: maxSteps, Exchange: kind, TreeFanout: fanout}
}

func TestExchangeDifferential(t *testing.T) {
	// Both strategies move the same per-step updates, so under BSP with
	// no faults they train the same model: the loss histories agree to
	// floating-point reassociation (the tree folds peer updates in a
	// different order than the parameter server's per-peer streams),
	// for a two-level tree and for one gather spanning the pool.
	const steps = 60
	run := func(kind string, fanout int) *Result {
		cl, job := testPMFJob(t, 5, exchangeSpec(kind, fanout, steps))
		res, err := Run(cl, job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ps := run(exchange.KindParamServer, 0)
	dflt := run("", 0)
	tree := run(exchange.KindTree, 2)
	wide := run(exchange.KindTree, 5)

	// The empty kind defaults to the parameter server, bit for bit.
	if !reflect.DeepEqual(ps.History, dflt.History) {
		t.Error("default exchange diverges from explicit ps")
	}
	for _, c := range []struct {
		name string
		res  *Result
	}{{"tree-2", tree}, {"tree-5", wide}} {
		if len(c.res.History) != len(ps.History) {
			t.Fatalf("%s ran %d steps, ps ran %d", c.name, len(c.res.History), len(ps.History))
		}
		for i := range ps.History {
			a, b := ps.History[i].RawLoss, c.res.History[i].RawLoss
			if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(a)) {
				t.Fatalf("%s loss diverges at step %d: ps %v vs %v", c.name, i+1, a, b)
			}
			if ps.History[i].UpdateBytes != c.res.History[i].UpdateBytes {
				t.Fatalf("%s update bytes diverge at step %d", c.name, i+1)
			}
		}
	}
}

func TestExchangeDriverDifferential(t *testing.T) {
	// The collective reduction rounds are driver phases like any other:
	// for a two-level tree and a one-level gather spanning the pool of
	// four, under each fault mix, the parallel driver must reproduce the
	// sequential driver's traces, histories and bills byte for byte.
	strategies := []struct {
		name string
		spec Spec
	}{
		{"tree-2", exchangeSpec(exchange.KindTree, 2, 40)},
		{"tree-4", exchangeSpec(exchange.KindTree, 4, 40)},
	}
	mixes := []struct {
		name   string
		faults func(seed uint64) faults.Spec
	}{
		{"no-faults", func(uint64) faults.Spec { return faults.Spec{} }},
		{"chaos", chaosSpec},
	}
	for _, strat := range strategies {
		for _, mix := range mixes {
			t.Run(fmt.Sprintf("%s/%s", strat.name, mix.name), func(t *testing.T) {
				build := func(t *testing.T) (*Cluster, Job) {
					cl, job := testPMFJob(t, 4, strat.spec)
					job.Spec.Faults = mix.faults(3)
					return cl, job
				}
				resSeq, traceSeq := runWithDriver(t, build, seqDriver{})
				resPar, tracePar := runWithDriver(t, build, nil)
				if !bytes.Equal(traceSeq, tracePar) {
					t.Error("trace files differ between seq and par drivers")
				}
				if !reflect.DeepEqual(resSeq.History, resPar.History) {
					t.Error("loss histories differ between seq and par drivers")
				}
				if resSeq.Cost.Total != resPar.Cost.Total {
					t.Errorf("bills differ: seq $%v, par $%v", resSeq.Cost.Total, resPar.Cost.Total)
				}
			})
		}
	}
}

func TestCollectiveSurvivesFaults(t *testing.T) {
	// Containers die mid-reduction and the KV/broker layers fault; the
	// tree must recover deterministically and leave no stale state, at
	// the default fan-out (one gather at P = 4) and at fan-out 2.
	for _, c := range []struct {
		name   string
		fanout int
	}{{"tree", 0}, {"tree-2", 2}} {
		t.Run(c.name, func(t *testing.T) {
			run := func() (*Cluster, *Result) {
				cl, job := testPMFJob(t, 4, exchangeSpec(exchange.KindTree, c.fanout, 120))
				job.Spec.Faults = chaosSpec(7)
				job.Spec.Faults.ReclaimProb = 0.9
				job.Spec.Faults.ReclaimMeanLife = 3 * time.Second
				res, err := Run(cl, job)
				if err != nil {
					t.Fatal(err)
				}
				return cl, res
			}
			cl, a := run()
			_, b := run()
			if a.Steps == 0 {
				t.Fatal("no steps completed")
			}
			if a.Recovery.WorkerDeaths == 0 {
				t.Fatalf("no container deaths under heavy reclamation: %+v", a.Faults)
			}
			if math.IsNaN(a.FinalLoss) || math.IsInf(a.FinalLoss, 0) {
				t.Fatalf("non-finite final loss %v", a.FinalLoss)
			}
			if a.Steps != b.Steps || a.ExecTime != b.ExecTime || a.FinalLoss != b.FinalLoss ||
				a.Cost.Total != b.Cost.Total {
				t.Fatalf("non-deterministic under faults: (%d, %v, %v, %v) vs (%d, %v, %v, %v)",
					a.Steps, a.ExecTime, a.FinalLoss, a.Cost.Total,
					b.Steps, b.ExecTime, b.FinalLoss, b.Cost.Total)
			}
			// Checkpoints and control keys still ride the KV tier; a
			// completed run leaves it empty.
			if n := cl.Redis.Len(); n != 0 {
				t.Fatalf("%d stale KV keys after a faulted collective run", n)
			}
		})
	}
}

func TestCollectiveComposesWithISPAndAutoTune(t *testing.T) {
	// The significance filter decides what enters the reduction and the
	// auto-tuner shrinks the pool between steps; both must compose with a
	// collective exchange (ranks are positions in the live pool, not ids).
	cl, job := testPMFJob(t, 5, Spec{
		Sync: consistency.ISP, Significance: 0.5,
		MaxSteps: 400, AutoTune: true,
		Exchange: exchange.KindTree,
		Sched:    sched.Config{Epoch: 300 * time.Millisecond, S: 0.1},
	})
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatal("no steps completed")
	}
	if math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0) {
		t.Fatalf("non-finite final loss %v", res.FinalLoss)
	}
	if len(res.Removals) == 0 {
		t.Fatal("auto-tuner removed no workers; the composition went unexercised")
	}
	if n := cl.Redis.Len(); n != 0 {
		t.Fatalf("%d stale KV keys after an auto-tuned collective run", n)
	}
}

func TestExchangeValidationErrors(t *testing.T) {
	build := func(mod func(*Spec)) (*Cluster, Job) {
		cl, job := testPMFJob(t, 2, Spec{MaxSteps: 2})
		mod(&job.Spec)
		return cl, job
	}
	cases := []struct {
		name string
		mod  func(*Spec)
		want error
	}{
		{"unknown kind", func(s *Spec) { s.Exchange = "gossip" }, exchange.ErrUnknownKind},
		{"scatter", func(s *Spec) { s.Exchange = "scatter" }, exchange.ErrUnknownKind},
		{"bad fanout", func(s *Spec) { s.Exchange = exchange.KindTree; s.TreeFanout = 1 }, exchange.ErrBadFanout},
		{"async", func(s *Spec) { s.Exchange = exchange.KindTree; s.Sync = consistency.Async }, ErrExchangeAsync},
		{"stale", func(s *Spec) { s.Exchange = exchange.KindTree; s.Staleness = 3 }, ErrExchangeStale},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cl, job := build(c.mod)
			if _, err := Run(cl, job); !errors.Is(err, c.want) {
				t.Fatalf("got %v, want %v", err, c.want)
			}
		})
	}
}
