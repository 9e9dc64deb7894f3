package core

import (
	"testing"

	"mlless/internal/consistency"
)

// benchmarkDriver measures full async training runs at cluster scale
// under one driver. Dataset generation and staging happen outside the
// timer; the measured region is the simulation itself, which is what
// the seq/par comparison prices.
func benchmarkDriver(b *testing.B, drv driver, workers, steps int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl, job := testPMFJob(b, workers,
			Spec{MaxSteps: steps, Sync: consistency.Async, Staleness: 3})
		job.drv = drv
		b.StartTimer()
		if _, err := Run(cl, job); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
}

func BenchmarkDriver100WorkersSeq(b *testing.B) { benchmarkDriver(b, seqDriver{}, 100, 30) }
func BenchmarkDriver100WorkersPar(b *testing.B) { benchmarkDriver(b, nil, 100, 30) }

// The narrow-cohort pair pins the degenerate end of the spectrum: two
// async workers yield lookahead groups of width at most 2, so the
// parallel driver's pool — sized min(GOMAXPROCS, cohort width) — must
// not pay for goroutines it can never feed. Par staying within noise of
// Seq here is the regression guard for the pool-sizing rule.
func BenchmarkDriverNarrowCohortSeq(b *testing.B) { benchmarkDriver(b, seqDriver{}, 2, 200) }
func BenchmarkDriverNarrowCohortPar(b *testing.B) { benchmarkDriver(b, nil, 2, 200) }

// TestAsyncCohortWidthAtScale records the lookahead-group widths of a
// 100-worker async run: the mean width is the parallelism the driver
// can exploit per round, i.e. the upper bound on multi-core speedup.
// The widths are a property of the schedule, not of the driver, so one
// run characterizes both. A mean near 1 would mean the cohort rule
// found no concurrency and the parallel driver degenerates to
// sequential; assert it stays comfortably wide.
func TestAsyncCohortWidthAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster-scale run")
	}
	var widths []int
	asyncGroupHook = func(w int) { widths = append(widths, w) }
	defer func() { asyncGroupHook = nil }()

	cl, job := testPMFJob(t, 100, Spec{MaxSteps: 30, Sync: consistency.Async, Staleness: 3})
	if _, err := Run(cl, job); err != nil {
		t.Fatal(err)
	}
	if len(widths) == 0 {
		t.Fatal("group hook never fired")
	}
	sum, max := 0, 0
	for _, w := range widths {
		sum += w
		if w > max {
			max = w
		}
	}
	mean := float64(sum) / float64(len(widths))
	t.Logf("rounds=%d mean-width=%.1f max-width=%d", len(widths), mean, max)
	if mean < 4 {
		t.Fatalf("mean cohort width %.1f leaves the parallel driver nearly sequential", mean)
	}
}
