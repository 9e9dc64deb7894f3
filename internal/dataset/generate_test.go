package dataset

import (
	"runtime"
	"testing"

	"mlless/internal/netmodel"
	"mlless/internal/objstore"
	"mlless/internal/vclock"
)

// TestGenerateCriteoParallelismIdentical pins the generator's
// determinism contract: the draws happen on one goroutine, so the
// staged shards are byte-equal whatever the number of row workers.
func TestGenerateCriteoParallelismIdentical(t *testing.T) {
	cfg := smallCriteo()
	cfg.Samples = 3*criteoChunkSamples + 123
	stage := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ds := GenerateCriteo(cfg)
		NormalizeInPlace(ds, cfg.NumericFeatures)
		return stagedSHA(t, ds, 50, 0, 3)
	}
	if one, four := stage(1), stage(4); one != four {
		t.Fatalf("staged shards differ: GOMAXPROCS 1 %s, 4 %s", one, four)
	}
}

// TestGeneratedSamplesAreRuns checks that generation and normalisation
// leave every sample's features in entry order strictly ascending — an
// ascending run, which staging reads without a sort.
func TestGeneratedSamplesAreRuns(t *testing.T) {
	cfg := smallCriteo()
	cfg.HashDim = 500 // collisions: rows shorter than 39
	ds := GenerateCriteo(cfg)
	check := func(stage string) {
		t.Helper()
		for n, s := range ds.Samples {
			prev := -1
			s.Features.ForEach(func(i uint32, val float64) {
				if int(i) <= prev || val == 0 {
					t.Fatalf("%s: sample %d entry (%d, %v) after index %d", stage, n, i, val, prev)
				}
				prev = int(i)
			})
		}
	}
	check("generated")
	NormalizeInPlace(ds, cfg.NumericFeatures)
	check("normalised")
}

// The data-tier benchmarks run at lr-bsp-wide's set-up shape: 60k
// samples, HashDim 1e5, staged in batches of 50. Each reports
// ns/sample beside allocs/op.

func wideCriteo() CriteoConfig {
	cfg := DefaultCriteoConfig()
	cfg.Samples, cfg.HashDim = 60_000, 100_000
	return cfg
}

func reportPerSample(b *testing.B, samples int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}

func BenchmarkGenerateCriteo(b *testing.B) {
	cfg := wideCriteo()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GenerateCriteo(cfg)
	}
	reportPerSample(b, cfg.Samples)
}

func BenchmarkNormalizeInPlace(b *testing.B) {
	cfg := wideCriteo()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ds := GenerateCriteo(cfg)
		b.StartTimer()
		NormalizeInPlace(ds, cfg.NumericFeatures)
	}
	reportPerSample(b, cfg.Samples)
}

func BenchmarkStageShards(b *testing.B) {
	cfg := wideCriteo()
	ds := GenerateCriteo(cfg)
	NormalizeInPlace(ds, cfg.NumericFeatures)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var clk vclock.Clock
		StageShards(ds, objstore.New(netmodel.Link{}), &clk, "criteo", 50, 0, 1)
	}
	reportPerSample(b, cfg.Samples)
}
