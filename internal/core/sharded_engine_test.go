package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"mlless/internal/dataset"
	"mlless/internal/model"
	"mlless/internal/optimizer"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// testShardedPMFJob is testPMFJob on a cluster whose KV tier has the
// given shard count (one shard is NewCluster exactly).
func testShardedPMFJob(t testing.TB, workers, shards int, spec Spec) (*Cluster, Job) {
	t.Helper()
	cl := NewClusterWithShards(shards)
	cfg := dataset.MovieLensConfig{Users: 150, Items: 600, Ratings: 30000, Rank: 8, NoiseStd: 0.6, Seed: 21}
	ds := dataset.GenerateMovieLens(cfg)
	var clk vclock.Clock
	n := dataset.StageShards(ds, cl.COS, &clk, "ml", 500, dataset.DefaultBatchesPerShard, 2)
	spec.Workers = workers
	return cl, Job{
		Spec:       spec,
		Model:      model.NewPMF(cfg.Users, cfg.Items, cfg.Rank, ds.RatingMean, 0.02, 31),
		Optimizer:  optimizer.NewNesterov(optimizer.Constant(1.0), 0.9),
		Bucket:     "ml",
		NumBatches: n,
		BatchSize:  500,
	}
}

// TestShardedTraceDeterministicUnderFaults extends the §7 determinism
// guarantee to the sharded exchange tier: identically-seeded faulted
// runs over 4 shards must produce byte-identical trace files.
func TestShardedTraceDeterministicUnderFaults(t *testing.T) {
	run := func() []byte {
		cl, job := testShardedPMFJob(t, 4, 4, Spec{MaxSteps: 80})
		job.Spec.Faults = chaosSpec(3)
		job.Trace = trace.New()
		if _, err := Run(cl, job); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, job.Trace.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatal("sharded trace files differ across identically-seeded runs")
	}
}

// TestShardedBillsOneVMPerShard pins the $ side of the shard sweep: a
// 1-shard cluster bills the paper's single M1.2x16, an N-shard cluster
// bills N of them.
func TestShardedBillsOneVMPerShard(t *testing.T) {
	vmNames := func(shards int) map[string]bool {
		cl, job := testShardedPMFJob(t, 4, shards, Spec{MaxSteps: 10})
		res, err := Run(cl, job)
		if err != nil {
			t.Fatal(err)
		}
		names := make(map[string]bool)
		for _, c := range res.Cost.Components {
			if c.Kind == "vm" && strings.HasPrefix(c.Name, "redis-vm") {
				names[c.Name] = true
			}
		}
		return names
	}

	single := vmNames(1)
	if len(single) != 1 || !single["redis-vm-m1.2x16"] {
		t.Fatalf("1-shard run bills %v, want the single redis-vm-m1.2x16", single)
	}
	sharded := vmNames(4)
	if len(sharded) != 4 {
		t.Fatalf("4-shard run bills %d redis VMs: %v", len(sharded), sharded)
	}
	for i := 0; i < 4; i++ {
		if !sharded[fmt.Sprintf("redis-vm-m1.2x16-s%d", i)] {
			t.Fatalf("4-shard run misses the shard-%d VM line: %v", i, sharded)
		}
	}
}

// TestShardingReducesPullTime checks the exchange-wall claim end to
// end: fanning the per-step pull out over more shards shrinks its mean
// time, and the curve flattens rather than inverting.
func TestShardingReducesPullTime(t *testing.T) {
	meanPull := func(shards int) time.Duration {
		cl, job := testShardedPMFJob(t, 6, shards, Spec{MaxSteps: 40})
		job.Trace = trace.New()
		res, err := Run(cl, job)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.StepPhases) == 0 {
			t.Fatal("traced run produced no StepPhases")
		}
		var total time.Duration
		for _, p := range res.StepPhases {
			total += p.Pull
		}
		return total / time.Duration(len(res.StepPhases))
	}

	p1, p4, p8 := meanPull(1), meanPull(4), meanPull(8)
	if p4 >= p1 {
		t.Fatalf("4 shards did not shrink the pull: %v -> %v", p1, p4)
	}
	// Flattening: past the payload/latency crossover extra shards may
	// stop helping, but they must never make the pull slower than the
	// 4-shard point by more than jitter.
	if p8 > p4+p4/10 {
		t.Fatalf("8 shards slowed the pull: p1=%v p4=%v p8=%v", p1, p4, p8)
	}
	t.Logf("mean pull: 1 shard %v, 4 shards %v, 8 shards %v", p1, p4, p8)
}
