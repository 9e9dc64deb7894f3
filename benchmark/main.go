// Command benchmark is the repository's benchmark: five closed-loop
// workloads over the simulator, two clocks (virtual results, host
// cost), end-to-end numbers from untraced repetitions and per-layer
// numbers from a separate traced pass. BENCHMARK.json at the repository
// root names the metrics and their regression bounds; README.md
// explains the workloads and how the metrics interact.
//
//	go run . -seed 1                          every workload, both passes
//	go run . -workload lr-bsp-wide -trace 0   one workload, end to end
//	go run . -compare a.json b.json           apply the bounds to two runs
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errFailedOps = errors.New("operations failed (see failed/attempted above)")

func run() error {
	var (
		name     = flag.String("workload", "", "workload to run (default: all five)")
		seed     = flag.Uint64("seed", 1, "workload seed: every input is generated from it (2 is the held-out seed)")
		seconds  = flag.Float64("seconds", 20, "measuring time per workload and pass")
		pass     = flag.String("trace", "both", "0: end-to-end pass, untraced; 1: traced pass, per-layer; both")
		smoke    = flag.Bool("smoke", false, "tiny scale (P<=4, <=10 steps, <=20 arrivals) for tests")
		out      = flag.String("out", "", "write the results as JSON to this file (input of -compare)")
		traceOut = flag.String("trace-out", "", "write the layer replay's spans as JSON to this file")
		commit   = flag.String("commit", "", "commit id to record in -out")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		manifest = flag.String("manifest", "BENCHMARK.json", "path of BENCHMARK.json (bounds for -compare)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(os.Stdout, *manifest, flag.Arg(0), flag.Arg(1))
	}
	if *pass != "0" && *pass != "1" && *pass != "both" {
		return fmt.Errorf("-trace must be 0, 1 or both, got %q", *pass)
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	budget := time.Duration(*seconds * float64(time.Second))

	file := resultFile{Host: readHostInfo(*commit), Seed: *seed, Seconds: *seconds, Smoke: *smoke}
	type tracedSpans struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	var spans []tracedSpans
	failed := false
	for _, w := range selected {
		var res workloadResult
		if *pass != "1" {
			r, err := endToEndPass(w, *seed, sc, budget)
			if err != nil {
				return err
			}
			res = r
		}
		if *pass != "0" {
			rec := newRecorder()
			r, err := tracedPass(w, *seed, sc, budget, rec)
			if err != nil {
				return err
			}
			spans = append(spans, tracedSpans{w.name, rec.spans})
			res = mergeResults(res, r)
		}
		if err := printResult(os.Stdout, res, *seed); err != nil {
			return err
		}
		file.Workloads = append(file.Workloads, res)
		failed = failed || !res.Correct
	}

	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		if err := writeJSON(*traceOut, spans); err != nil {
			return err
		}
	}
	if failed {
		return errFailedOps
	}
	return nil
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// mergeResults joins the two passes of one workload. Both passes check
// every repetition against the same deterministic outputs, so the
// digests must agree too.
func mergeResults(e2e, traced workloadResult) workloadResult {
	if e2e.Name == "" {
		return traced
	}
	e2e.PerLayer = traced.PerLayer
	e2e.Attempted += traced.Attempted
	e2e.Failed += traced.Failed
	if traced.Digest != e2e.Digest {
		e2e.Failed += traced.Attempted - traced.Failed
	}
	e2e.Correct = e2e.Failed == 0
	return e2e
}

// printResult prints every metric by name with its unit, then the
// result line: one JSON object with exactly the keys correct,
// attempted, failed and metrics.
func printResult(w io.Writer, res workloadResult, seed uint64) error {
	fmt.Fprintf(w, "workload %s seed %d digest %s\n", res.Name, seed, res.Digest)
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]lineMetric{}}

	if res.EndToEnd != nil {
		for _, def := range endToEndDefs {
			m := res.EndToEnd[def.name]
			d := m.Dist
			fmt.Fprintf(w, "  %-38s %14.6g %-8s min %.6g p25 %.6g p75 %.6g max %.6g n %d\n",
				def.name, m.Value, m.Unit, d.Min, d.P25, d.P75, d.Max, d.N)
			line.Metrics[def.name] = lineMetric{m.Value, m.Unit}
		}
		fmt.Fprintf(w, "  %-38s %14.6g %-8s %d of %d operations\n", "failed_share",
			float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
	}
	if res.PerLayer != nil {
		for _, def := range perLayerDefs {
			m := res.PerLayer[def.name]
			fmt.Fprintf(w, "  %-38s %14.6g %s\n", def.name, m.Value, m.Unit)
			line.Metrics[def.name] = lineMetric{m.Value, m.Unit}
		}
	}
	// Only a NaN or an infinity can fail here; that is a failed run, not
	// a line to print.
	buf, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("%s: result line: %w", res.Name, err)
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}
