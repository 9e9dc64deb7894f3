package core

import (
	"runtime"
	"testing"

	"mlless/internal/consistency"
)

// runMallocs runs a job and returns the process allocation count it
// incurred.
func runMallocs(t testing.TB, cl *Cluster, job Job) float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if _, err := Run(cl, job); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}

// stepMallocs runs a small PMF job and returns the process allocation
// count it incurred.
func stepMallocs(t testing.TB, steps int, spec Spec) float64 {
	cl, job := testPMFJob(t, 4, spec)
	job.Spec.MaxSteps = steps
	return runMallocs(t, cl, job)
}

// TestSteadyStateStepAllocsBounded pins the marginal allocation cost of
// one lock-step training step (4 workers). The sparse kernels, the
// exchange's payload buffers and per-step scratch are allocation-free in
// the steady state; what remains is per-step key formatting and the
// broker's copy-on-publish, bounded here so future PRs cannot
// silently reintroduce per-step churn in the numeric hot path. (At the
// seed this marginal cost was ~285 allocs/step; the zero-allocation
// pass brought it under 200, to 156.8. Formatting each pull window's
// keys once for the pool and the announced set only on error took it
// to 108.4. Gradients, updates and filter outputs as ascending runs,
// summed in a pooled dense accumulator, allocate nothing warm and left
// it there:
// 108.3–108.6 over four runs, against 108.0–108.8 for the code before
// them on the same host — the spread is pools emptied by GC. Stores
// that keep the payload they are given, instead of copying it on Set,
// took it to 84.0 in three of three runs, against 104.4–104.6 for the
// code before them.)
func TestSteadyStateStepAllocsBounded(t *testing.T) {
	spec := Spec{}
	stepMallocs(t, 10, spec) // warm pools, caches and lazy scratch
	short := stepMallocs(t, 40, spec)
	long := stepMallocs(t, 120, spec)
	marginal := (long - short) / 80
	t.Logf("marginal allocations per step: %.1f", marginal)
	if marginal > 250 {
		t.Fatalf("steady-state step allocates %.1f per step, want <= 250", marginal)
	}
}

// BenchmarkStepLockStepPMF measures whole lock-step training steps,
// including publish/pull through the KV store and broker. ns/step is
// the figure-regeneration currency of ISSUE 5.
func BenchmarkStepLockStepPMF(b *testing.B) {
	const steps = 50
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl, job := testPMFJob(b, 4, Spec{MaxSteps: steps})
		b.StartTimer()
		if _, err := Run(cl, job); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
}

// BenchmarkStepAsyncPMF is BenchmarkStepLockStepPMF under the async
// schedule (K=2), exercising asyncPull's scratch reuse.
func BenchmarkStepAsyncPMF(b *testing.B) {
	const steps = 50
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl, job := testPMFJob(b, 4, Spec{MaxSteps: steps, Sync: consistency.Async, Staleness: 2})
		b.StartTimer()
		if _, err := Run(cl, job); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
}
