package baseline_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"mlless/internal/baseline"
	"mlless/internal/baseline/pywren"
	"mlless/internal/baseline/serverful"
	"mlless/internal/consistency"
	"mlless/internal/core"
	"mlless/internal/cost"
	"mlless/internal/exchange"
	"mlless/internal/optimizer"
	"mlless/internal/vclock"
)

// free is the zero-cost charge: with it the shared loop is the reference
// trainer, plain data-parallel SGD on the averaged gradient.
type free struct{}

func (free) Start(baseline.Env)                                               {}
func (free) Map(*vclock.Clock, int, int, float64) error                       { return nil }
func (free) Reduce(*vclock.Clock, int, time.Duration, float64) (int64, error) { return 0, nil }
func (free) Bill(time.Duration) cost.Report                                   { return cost.Report{} }

func reference(cl *core.Cluster, job core.Job) (*core.Result, error) {
	return baseline.Run(cl.COS, job, free{})
}

// maxRelGap returns the largest relative difference between two runs'
// per-step raw losses, which must cover the same steps.
func maxRelGap(t *testing.T, a, b *core.Result) float64 {
	t.Helper()
	if len(a.History) != len(b.History) {
		t.Fatalf("runs cover %d and %d steps", len(a.History), len(b.History))
	}
	gap := 0.0
	for i, p := range a.History {
		q := b.History[i].RawLoss
		gap = max(gap, math.Abs(p.RawLoss-q)/math.Abs(q))
	}
	return gap
}

// TestReferenceMatchesMLLess is the differential oracle for MLLess BSP
// with the parameter-server exchange at P > 1. Each MLLess worker applies
// its own optimizer's update scaled by 1/P, then its peers'. Plain SGD is
// linear in the gradient, so that equals one SGD step on the averaged
// gradient up to summation order, and the two loss histories must agree
// to rounding. Nesterov and Adam keep per-worker state, so per-worker
// optimizers followed by averaging differ from one optimizer on the
// averaged gradient, and the histories must differ measurably. The final
// raw losses logged under -v are the Table 3 evidence in EXPERIMENTS.md.
func TestReferenceMatchesMLLess(t *testing.T) {
	for _, m := range []struct {
		name string
		pmf  bool
		lr   optimizer.Constant // the stage's learning rate, reused for SGD
	}{{"LR-Adam", false, 0.05}, {"PMF-Nesterov", true, 1.0}} {
		for _, p := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/P=%d", m.name, p), func(t *testing.T) {
				run := func(train func(*core.Cluster, core.Job) (*core.Result, error), sgd bool) *core.Result {
					cl, job := stageJob(t, m.pmf)
					job.Spec.Workers = p
					job.Spec.Sync = consistency.BSP
					job.Spec.Exchange = exchange.KindParamServer
					if sgd {
						job.Optimizer = optimizer.NewSGD(m.lr)
					}
					res, err := train(cl, job)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				sgdGap := maxRelGap(t, run(core.Run, true), run(reference, true))
				if sgdGap > 1e-12 {
					t.Errorf("SGD: MLLess and the reference differ by %.3g relative", sgdGap)
				}
				mlless, ref := run(core.Run, false), run(reference, false)
				gap := maxRelGap(t, mlless, ref)
				if gap <= 1e-6 {
					t.Errorf("stage optimizer: MLLess and the reference agree to %.3g; per-worker state should show", gap)
				}
				t.Logf("max relative gap: SGD %.2g, stage optimizer %.2g; final raw loss MLLess %.4f, reference %.4f",
					sgdGap, gap, mlless.History[len(mlless.History)-1].RawLoss, ref.History[len(ref.History)-1].RawLoss)
			})
		}
	}
}

// TestPatienceStopsPlateau mirrors core's test of the same name for the
// shared loop: a plateaued single-worker run with Patience set stops as
// converged, at the very step MLLess stops, in every system.
func TestPatienceStopsPlateau(t *testing.T) {
	const maxSteps = 2000
	systems := []struct {
		name  string
		train func(*core.Cluster, core.Job) (*core.Result, error)
	}{
		{"reference", reference},
		{"pytorch", func(cl *core.Cluster, job core.Job) (*core.Result, error) {
			return serverful.Train(cl.COS, job, serverful.DefaultConfig())
		}},
		{"pywren", func(cl *core.Cluster, job core.Job) (*core.Result, error) {
			return pywren.Train(cl.Platform, cl.COS, job, pywren.DefaultConfig())
		}},
	}
	run := func(train func(*core.Cluster, core.Job) (*core.Result, error)) *core.Result {
		cl, job := stageJob(t, true)
		job.Spec.MaxSteps = maxSteps
		job.Spec.Patience = 30
		res, err := train(cl, job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(core.Run)
	if want.Steps >= maxSteps || !want.Converged {
		t.Fatalf("MLLess: patience did not stop the run (%d steps, converged %v)", want.Steps, want.Converged)
	}
	for _, sys := range systems {
		if got := run(sys.train); got.Steps != want.Steps || !got.Converged {
			t.Errorf("%s stopped after %d steps (converged %v), MLLess after %d",
				sys.name, got.Steps, got.Converged, want.Steps)
		}
	}
	t.Logf("patience stopped every system after %d steps", want.Steps)
}
