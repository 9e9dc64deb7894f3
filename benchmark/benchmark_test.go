package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// contractManifest is BENCHMARK.json as the builder's contract defines
// it; unknown keys fail the decode.
type contractManifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

const manifestPath = "../BENCHMARK.json"

func readManifest(t *testing.T) contractManifest {
	t.Helper()
	buf, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	var m contractManifest
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesProgram keeps BENCHMARK.json inside the contract's
// limits and equal to the tables the program prints from.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of 1..200 characters", w.Name)
		}
	}

	if len(m.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(m.EndToEnd), len(endToEndDefs))
	}
	setup := false
	for i, e := range m.EndToEnd {
		name(e.Name)
		if got := (metricDef{e.Name, e.Unit, e.Better}); got != endToEndDefs[i] {
			t.Errorf("end_to_end[%d] = %v, the program's is %v", i, got, endToEndDefs[i])
		}
		if e.Bound == nil || *e.Bound < 0 || *e.Bound > 0.25 {
			t.Errorf("%s: bound must be in [0, 0.25]", e.Name)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric with unit s and better lower")
	}

	if len(m.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(m.PerLayer), len(perLayerDefs))
	}
	for i, p := range m.PerLayer {
		name(p.Name)
		if got := (metricDef{p.Name, p.Unit, p.Better}); got != perLayerDefs[i] {
			t.Errorf("per_layer[%d] = %v, the program's is %v", i, got, perLayerDefs[i])
		}
	}
	for _, def := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !unitRE.MatchString(def.unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", def.name, def.unit)
		}
		if def.better != "lower" && def.better != "higher" {
			t.Errorf("%s: better = %q", def.name, def.better)
		}
	}
}

// smokeBoth runs both passes of a workload at smoke scale.
func smokeBoth(t *testing.T, w workload, seed uint64) workloadResult {
	t.Helper()
	e2e, err := endToEndPass(w, seed, smokeScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := tracedPass(w, seed, smokeScale, 0, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	return mergeResults(e2e, traced)
}

// TestEveryMetricPrintedOnce checks the one-command promise on every
// workload: each name in BENCHMARK.json is printed exactly once, with
// its unit, and the result line carries exactly the contract's keys.
func TestEveryMetricPrintedOnce(t *testing.T) {
	m := readManifest(t)
	units := map[string]string{}
	for _, e := range m.EndToEnd {
		units[e.Name] = e.Unit
	}
	for _, p := range m.PerLayer {
		units[p.Name] = p.Unit
	}
	for _, w := range workloads {
		res := smokeBoth(t, w, 1)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		var out bytes.Buffer
		if err := printResult(&out, res, 1); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		printed := map[string]int{}
		for _, line := range lines[1 : len(lines)-1] {
			f := strings.Fields(line)
			if len(f) < 3 {
				t.Errorf("%s: malformed metric line %q", w.name, line)
				continue
			}
			printed[f[0]]++
			if want, ok := units[f[0]]; ok && f[2] != want {
				t.Errorf("%s: %s printed with unit %q, want %q", w.name, f[0], f[2], want)
			}
		}
		for n := range units {
			if printed[n] != 1 {
				t.Errorf("%s: metric %s printed %d times", w.name, n, printed[n])
			}
		}

		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("%s: result line: %v", w.name, err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Errorf("%s: result line keys = %v", w.name, line)
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(units) {
			t.Errorf("%s: result line has %d metrics, want %d", w.name, len(metrics), len(units))
		}
		for n, mv := range metrics {
			if mv.Value == nil || mv.Unit != units[n] {
				t.Errorf("%s: result line metric %s = %+v", w.name, n, mv)
			}
		}
		for _, e := range m.EndToEnd {
			if mv := metrics[e.Name]; mv.Value != nil && *mv.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, e.Name)
			}
		}
	}
}

// TestSeedsDecideTheOutputs: the same seed gives bit-equal virtual
// results and digests, another seed gives another digest.
func TestSeedsDecideTheOutputs(t *testing.T) {
	run := func(w workload, seed uint64) outcome {
		st, err := w.stage(seed, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := st.runOnce(w, runOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, w := range workloads {
		a, b, c := run(w, 1), run(w, 1), run(w, 2)
		if a.digest != b.digest {
			t.Errorf("%s: two runs of seed 1 have different digests", w.name)
		}
		if a.makespan != b.makespan || a.cost != b.cost || a.finalLoss != b.finalLoss || a.p99 != b.p99 || a.jain != b.jain {
			t.Errorf("%s: two runs of seed 1 differ in a sim_* value", w.name)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 1 and 2 have the same digest", w.name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) has children a [10,40) and b [30,60) — overlapping, so
	// they cover [10,60) once — and c [90,120), clipped to [90,100).
	// a has one child [15,25).
	spans := []span{
		{Name: "root", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "a", StartNS: 10, EndNS: 40, Parent: 0},
		{Name: "b", StartNS: 30, EndNS: 60, Parent: 0},
		{Name: "c", StartNS: 90, EndNS: 120, Parent: 0},
		{Name: "a1", StartNS: 15, EndNS: 25, Parent: 1},
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	totals := totalsByName(spans)
	if totals["a"] != (spanTotal{selfNS: 20, calls: 1}) {
		t.Errorf("totals[a] = %+v", totals["a"])
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	d := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if d.P25 != 2.75 || d.Median != 5.5 || d.P75 != 8.25 || d.Min != 1 || d.Max != 10 || d.N != 10 {
		t.Errorf("summarize = %+v", d)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if d := summarize([]float64{3, 1, 2}); d.P25 != 1 || d.Median != 2 || d.P75 != 3 {
		t.Errorf("summarize of three = %+v", d)
	}
	if got := summarize([]float64{9, 10, 11}).spread(); got != 0.2 {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed uint64, wall dist, makespan float64, digest string) string {
		m := func(d dist, unit string) metric { return metric{Value: d.Median, Unit: unit, Dist: &d} }
		f := resultFile{Seed: seed, Workloads: []workloadResult{{
			Name: "lr-bsp-wide", Correct: true, Attempted: 1, Digest: digest,
			EndToEnd: map[string]metric{
				"host_wall_s":    m(wall, "s"),
				"sim_makespan_s": m(exact(makespan), "sim_s"),
			},
		}}}
		buf, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bound := 0.0
	for _, e := range readManifest(t).EndToEnd {
		if e.Name == "host_wall_s" {
			bound = *e.Bound
		}
	}
	tight := func(v float64) dist { return dist{Median: v, Min: v, P25: v, P75: v, Max: v, N: 5} }
	base := write("a.json", 1, tight(1), 10, "d1")
	status := func(path string) (string, error) {
		var out bytes.Buffer
		err := compareFiles(&out, manifestPath, base, path)
		return out.String(), err
	}

	out, err := status(write("ok.json", 1, tight(1+bound/2), 10, "d1"))
	if err != nil || strings.Contains(out, "regressed") || !strings.Contains(out, "same") {
		t.Errorf("within the bound: err=%v\n%s", err, out)
	}
	out, err = status(write("slow.json", 1, tight(1+2*bound), 10, "d1"))
	if !errors.Is(err, errRegressed) || !strings.Contains(out, "regressed") {
		t.Errorf("beyond the bound: err=%v\n%s", err, out)
	}
	noisy := dist{Median: 1 + 2*bound, Min: 1, P25: 1, P75: 1 + 4*bound, Max: 2, N: 5}
	out, err = status(write("noisy.json", 1, noisy, 10, "d1"))
	if err != nil || !strings.Contains(out, "unresolved") {
		t.Errorf("spread beyond the bound: err=%v\n%s", err, out)
	}
	out, err = status(write("moved.json", 1, tight(1), 10.001, "d2"))
	if err != nil || !strings.Contains(out, "changed") || !strings.Contains(out, "differs") {
		t.Errorf("sim value moved: err=%v\n%s", err, out)
	}
}
