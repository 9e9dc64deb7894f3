package experiments

import (
	"strconv"
	"strings"
	"testing"

	"mlless/internal/core"
	"mlless/internal/dataset"
	"mlless/internal/sparse"
	"mlless/internal/vclock"
)

// TestRegistryComplete pins the experiment inventory to the paper's
// evaluation section.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2a", "fig2b", "fig2c", "fig2d", "fig3", "table1", "table2",
		"fig4", "fig5", "table3", "fig6", "fig7",
		"abl-filter", "abl-knee", "abl-merge", "abl-allreduce", "abl-startup", "abl-ssp",
		"abl-faults", "abl-async", "abl-exchange", "abl-dataset",
		"abl-tenancy",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("FIG4"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := Lookup("nonsense"); ok {
		t.Fatal("bogus id resolved")
	}
}

// TestAllExperimentsQuick executes the whole suite in quick mode: every
// runner must return a non-empty, well-formed table.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite still runs full training jobs")
	}
	for _, entry := range Registry() {
		entry := entry
		t.Run(entry.ID, func(t *testing.T) {
			table, err := entry.Run(Options{Quick: true, ArtifactDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if len(table.Rows) == 0 {
				t.Fatal("no rows")
			}
			if len(table.Header) == 0 {
				t.Fatal("no header")
			}
			for i, row := range table.Rows {
				if len(row) != len(table.Header) {
					t.Fatalf("row %d has %d cells, header has %d", i, len(row), len(table.Header))
				}
			}
			if !strings.Contains(table.String(), table.ID) {
				t.Fatal("String() must include the experiment id")
			}
		})
	}
}

// TestFig2aSpeedDecreasesWithWorkers checks the paper's O(P) shape.
func TestFig2aSpeedDecreasesWithWorkers(t *testing.T) {
	table, err := Fig2a(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for i, row := range table.Rows {
		rate, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && rate >= prev {
			t.Fatalf("steps/s did not decrease: %v then %v", prev, rate)
		}
		prev = rate
	}
}

// TestFig4ISPNotSlower checks the Fig 4 shape: v=0.7 must not be slower
// than BSP for the PMF workload.
func TestFig4ISPNotSlower(t *testing.T) {
	table, err := Fig4(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		if row[0] != PMF10M(true).Name || row[2] != "0.7" {
			continue
		}
		norm, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if norm > 1.0 {
			t.Fatalf("PMF at v=0.7 normalized time %v > 1 (ISP slower than BSP)", norm)
		}
	}
}

// TestFig3NoFaaSParallelism checks the Fig 3 message: the FaaS 2-thread
// speedup never exceeds 1, while the VM reference does.
func TestFig3NoFaaSParallelism(t *testing.T) {
	table, err := Fig3(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		faas, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		vm, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if faas > 1.0 {
			t.Fatalf("FaaS 2-thread speedup %v > 1 at %s MiB", faas, row[0])
		}
		if vm <= 1.0 {
			t.Fatalf("VM 2-thread speedup %v <= 1", vm)
		}
	}
}

func TestWorkloadsCached(t *testing.T) {
	a := PMF10M(true)
	b := PMF10M(true)
	if a != b {
		t.Fatal("workload cache miss for identical key")
	}
	if PMF10M(true) == PMF10M(false) {
		t.Fatal("quick and full workloads share a cache entry")
	}
}

func TestWorkloadMakeIsolated(t *testing.T) {
	wl := PMF1M(true)
	clA, jobA := wl.Make(4)
	clB, jobB := wl.Make(4)
	if clA == clB {
		t.Fatal("Make returned a shared cluster")
	}
	if jobA.Model == jobB.Model {
		t.Fatal("Make returned a shared model prototype")
	}
	if jobA.NumBatches != jobB.NumBatches || jobA.NumBatches == 0 {
		t.Fatalf("staging inconsistent: %d vs %d", jobA.NumBatches, jobB.NumBatches)
	}
}

// TestMakeWithBatchKeepsSampleStream pins what Table 3 relies on: the
// staging shuffle does not depend on the batch size, so re-staging at
// another B cuts the very sample stream Make trains on.
func TestMakeWithBatchKeepsSampleStream(t *testing.T) {
	wl := LRCriteo(true)
	stream := func(cl *core.Cluster, job core.Job) (labels []float64, feats []*sparse.Vector) {
		var clk vclock.Clock
		sc, err := dataset.OpenShardCache(cl.COS, &clk, job.Bucket)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < job.NumBatches; i++ {
			v, err := sc.Fetch(&clk, i)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < v.Len(); k++ {
				labels = append(labels, v.Label(k))
				f := sparse.New()
				v.ForEachPair(k, f.Set)
				feats = append(feats, f)
			}
		}
		return labels, feats
	}
	la, fa := stream(wl.Make(4))
	lb, fb := stream(makeWithBatch(wl, 4, wl.BatchSize/2+1))
	if len(la) != len(lb) || len(la) == 0 {
		t.Fatalf("stream lengths %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] || !fa[i].Equal(fb[i]) {
			t.Fatalf("sample %d differs between batch sizes", i)
		}
	}
}

func TestTableCSV(t *testing.T) {
	table := Table{
		ID:     "x",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "two, quoted"}},
	}
	csv := table.CSV()
	if !strings.Contains(csv, "a,b") || !strings.Contains(csv, `"two, quoted"`) {
		t.Fatalf("CSV = %q", csv)
	}
}

func TestFig6Series(t *testing.T) {
	if testing.Short() {
		t.Skip("runs training jobs")
	}
	opts := Options{Quick: true}
	wls, _ := Fig6Workloads(opts)
	table, err := Fig6Series(opts, wls[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 10 {
		t.Fatalf("series rows = %d", len(table.Rows))
	}
	if len(table.Header) != 1+len(systemNames) {
		t.Fatalf("series header = %v", table.Header)
	}
}
