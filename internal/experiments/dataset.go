package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"mlless/internal/core"
	"mlless/internal/dataset"
	"mlless/internal/netmodel"
	"mlless/internal/trace"
)

// AblDataset benchmarks the columnar data tier (DESIGN.md §13) on two
// axes:
//
//   - training: the traced per-step fetch time of a worker's one ranged
//     read of its batch block.
//   - generation: StreamCriteo throughput at increasing scale, pinning
//     the tier's core claim — peak memory tracks the shard chunk, not
//     the dataset. The full run streams paper-scale Criteo (47M
//     samples, 1e8 hashed dims) without ever materializing it.
//
// Columns use "-" where a metric does not apply to the row's phase.
func AblDataset(opts Options) (Table, error) {
	t := Table{
		ID:    "abl-dataset",
		Title: "Columnar data tier: fetch cost and generation scale",
		Header: []string{"phase", "config", "samples", "dim", "par", "wall-time",
			"size-MB", "batches", "fetch/step", "peak-heap-MiB", "final-loss"},
		Notes: []string{
			"train row: fetch/step is the traced per-step mean of the workers' ranged block reads",
			"stream rows: wall-time is host time to generate+encode; fetch/step is the COS-link transfer time of the mean batch block",
			"peak-heap-MiB samples runtime.HeapAlloc during streaming: bounded by parallelism x shard chunk, not dataset size",
		},
	}

	// Training: the per-step fetch of a traced LR job.
	wl := LRCriteo(true)
	cl, job := wl.Make(4)
	job.Spec.MaxSteps = 60
	if opts.Quick {
		job.Spec.MaxSteps = 30
	}
	job.Spec.TargetLoss = 0
	job.Trace = trace.New()
	label := "abl-dataset-" + wl.Name
	res, err := runJob(opts, cl, job, label)
	if err != nil {
		return Table{}, fmt.Errorf("abl-dataset (%s): %w", label, err)
	}
	t.Rows = append(t.Rows, []string{
		"train", wl.Name,
		fmt.Sprintf("%d", wl.numBatch*wl.BatchSize),
		"-", "-",
		res.ExecTime.Round(time.Millisecond).String(),
		"-",
		fmt.Sprintf("%d", res.Steps),
		meanPhase(res.StepPhases, func(p core.StepPhase) time.Duration { return p.Fetch }).Round(time.Microsecond).String(),
		"-",
		fmt.Sprintf("%.6f", res.FinalLoss),
	})

	// Generation: stream Criteo at increasing scale into a counting
	// sink. Quick keeps CI fast; the full sweep ends at paper scale.
	type genPoint struct {
		samples, hashDim, par int
	}
	points := []genPoint{
		{60_000, 200_000, 1},
		{60_000, 200_000, 0}, // 0 = GOMAXPROCS
	}
	if !opts.Quick {
		points = append(points,
			genPoint{1_200_000, 1_000_000, 0},
			genPoint{47_000_000, 100_000_000, 0},
		)
	}
	link := netmodel.COSLink()
	for _, pt := range points {
		cfg := dataset.DefaultCriteoConfig()
		cfg.Samples = pt.samples
		cfg.HashDim = pt.hashDim
		sc := dataset.StreamConfig{BatchSize: 1250, Parallelism: pt.par}
		var sink dataset.CountSink
		stop := trackPeakHeap()
		start := time.Now()
		stats, err := dataset.StreamCriteo(cfg, sc, &sink)
		wall := time.Since(start)
		peakMiB := stop()
		if err != nil {
			return Table{}, fmt.Errorf("abl-dataset: stream %d samples: %w", pt.samples, err)
		}
		par := pt.par
		if par == 0 {
			par = runtime.GOMAXPROCS(0)
		}
		meanBatch := int(stats.Bytes / int64(stats.Batches))
		t.Rows = append(t.Rows, []string{
			"stream", "criteo-raw",
			fmt.Sprintf("%d", stats.Samples),
			fmt.Sprintf("%d", cfg.HashDim+cfg.NumericFeatures),
			fmt.Sprintf("%d", par),
			wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", float64(stats.Bytes)/1e6),
			fmt.Sprintf("%d", stats.Batches),
			link.TransferTime(meanBatch).Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", peakMiB),
			"-",
		})
	}
	return t, nil
}

// trackPeakHeap samples runtime.HeapAlloc on a background goroutine
// until the returned stop function is called; stop reports the peak in
// MiB.
func trackPeakHeap() func() float64 {
	done := make(chan struct{})
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	base := m.HeapAlloc
	peak := base
	var mu sync.Mutex
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				mu.Lock()
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
				mu.Unlock()
			}
		}
	}()
	return func() float64 {
		close(done)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mu.Lock()
		defer mu.Unlock()
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
		return float64(peak) / (1 << 20)
	}
}
