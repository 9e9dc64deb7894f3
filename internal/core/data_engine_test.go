package core

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/exchange"
	"mlless/internal/faults"
	"mlless/internal/objstore"
)

var update = flag.Bool("update", false, "rewrite testdata/loss-*.golden from the current run")

// lossGolden renders a loss history as the committed text form: one
// line per step holding the smoothed loss, the raw loss (float64 bit
// patterns in hex, so equal bytes mean equal bits) and the pool size.
// Times and bills are left out on purpose: the goldens pin the
// numerics, and were captured on a tier with other fetch extents.
func lossGolden(res *Result) []byte {
	var b bytes.Buffer
	b.WriteString("# step loss raw_loss workers (float64 bits, hex)\n")
	for _, p := range res.History {
		fmt.Fprintf(&b, "%d %016x %016x %d\n", p.Step,
			math.Float64bits(p.Loss), math.Float64bits(p.RawLoss), p.Workers)
	}
	return b.Bytes()
}

// assertLossGolden pins the numerics of the data path on
// testdata/loss-<name>.golden. The files were captured from the
// row-encoded batch tier ([]Sample models, whole-object fetches) in the
// commit before that tier was deleted, so they pin the surviving path
// to its predecessor, not to itself: per-step loss, raw loss and pool
// size, bit for bit — which covers the per-coordinate gradient
// accumulation order, the normalize-then-shuffle ordering (LR) and,
// under async and faults, that fetch charges reorder no update. Only a
// deliberate change to the numerics justifies -update.
func assertLossGolden(t *testing.T, name string, stage func(testing.TB, int, Spec) (*Cluster, Job), spec Spec) {
	t.Helper()
	cl, job := stage(t, 4, spec)
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	got := lossGolden(res)
	path := filepath.Join("testdata", "loss-"+name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("loss history diverges from %s:\nwant:\n%s\ngot:\n%s", path, want, got)
	}
}

// TestDataShardLossMatchesBatchPMF: the shard tier trains the exact
// same model as the batch tier the goldens were captured from, under
// every schedule, the tree exchange and a reclaim-faulted run.
func TestDataShardLossMatchesBatchPMF(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"bsp", Spec{MaxSteps: 60}},
		{"isp", Spec{MaxSteps: 60, Sync: consistency.ISP, Significance: 0.01}},
		{"ssp", Spec{MaxSteps: 60, Staleness: 3}},
		{"async", Spec{MaxSteps: 60, Sync: consistency.Async, Staleness: 2}},
		{"tree", Spec{MaxSteps: 60, Exchange: exchange.KindTree, TreeFanout: 4}},
		{"reclaim", Spec{MaxSteps: 60,
			Faults: faults.Spec{Seed: 3, ReclaimProb: 0.3, ReclaimMeanLife: 2 * time.Second}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			assertLossGolden(t, "pmf-"+tc.name, testPMFJob, tc.spec)
		})
	}
}

// TestDataShardLossMatchesBatchLR covers the Criteo path, including the
// min-max normalization, which the batch tier applied after the shuffle
// (a staged map-reduce pass) and the shard tier applies before it.
func TestDataShardLossMatchesBatchLR(t *testing.T) {
	assertLossGolden(t, "lr-bsp", testLRJob, Spec{MaxSteps: 40})
}

// TestSpecDataRejectsRemovedTier: asking for the deleted row-encoded
// tier (or anything unknown) is a typed error, never a silent run on
// shards; the two spellings of the one tier are accepted.
func TestSpecDataRejectsRemovedTier(t *testing.T) {
	for _, data := range []string{"batch", "columnar"} {
		cl, job := testPMFJob(t, 2, Spec{MaxSteps: 1, Data: data})
		_, err := Run(cl, job)
		if !errors.Is(err, ErrUnknownData) || !strings.Contains(err.Error(), "removed") {
			t.Fatalf("Data=%q: got %v, want ErrUnknownData naming the removal", data, err)
		}
	}
	for _, data := range []string{"", DataShard} {
		cl, job := testPMFJob(t, 2, Spec{MaxSteps: 1, Data: data})
		if _, err := Run(cl, job); err != nil {
			t.Fatalf("Data=%q: %v", data, err)
		}
	}
}

// TestDataShardMissingManifest: a job against a bucket with no staged
// manifest fails fast at setup.
func TestDataShardMissingManifest(t *testing.T) {
	cl, job := testPMFJob(t, 2, Spec{MaxSteps: 1})
	job.Bucket = "unstaged"
	if _, err := Run(cl, job); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("unstaged bucket: got %v, want ErrNotFound", err)
	}
}

// TestDataShardManifestMismatch: a stale NumBatches in the job spec is
// rejected against the staged manifest.
func TestDataShardManifestMismatch(t *testing.T) {
	cl, job := testPMFJob(t, 2, Spec{MaxSteps: 1})
	job.NumBatches--
	if _, err := Run(cl, job); err == nil {
		t.Fatal("manifest/job batch-count mismatch must fail")
	}
}

// TestDataShardDeterminism is TestDeterminism on feature data: two
// identical LR runs over CSR blocks are byte-identical in steps, times
// and losses (TestDeterminism covers the rating blocks).
func TestDataShardDeterminism(t *testing.T) {
	run := func() *Result {
		cl, job := testLRJob(t, 4, Spec{TargetLoss: 0.62, MaxSteps: 150})
		res, err := Run(cl, job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.ExecTime != b.ExecTime || a.FinalLoss != b.FinalLoss {
		t.Fatalf("non-deterministic: (%d, %v, %v) vs (%d, %v, %v)",
			a.Steps, a.ExecTime, a.FinalLoss, b.Steps, b.ExecTime, b.FinalLoss)
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("history diverges at step %d", i+1)
		}
	}
}

// TestDataShardStepAllocsBounded is TestSteadyStateStepAllocsBounded on
// feature data: walking a CSR block (Dot, ForEachPair) must stay inside
// the same steady-state step budget as the rating blocks.
func TestDataShardStepAllocsBounded(t *testing.T) {
	mallocs := func(steps int) float64 {
		cl, job := testLRJob(t, 4, Spec{MaxSteps: steps})
		return runMallocs(t, cl, job)
	}
	mallocs(10) // warm pools, caches and lazy scratch
	short := mallocs(40)
	long := mallocs(120)
	marginal := (long - short) / 80
	t.Logf("marginal allocations per step (feature data): %.1f", marginal)
	if marginal > 250 {
		t.Fatalf("steady-state LR step allocates %.1f per step, want <= 250", marginal)
	}
}
