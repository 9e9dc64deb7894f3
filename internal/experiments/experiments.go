// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the simulated cloud: each Fig*/Table* function
// builds the workload, runs the systems, and returns a printable Table
// whose rows correspond to the points of the original plot. DESIGN.md
// carries the experiment index; EXPERIMENTS.md records paper-vs-measured.
//
// Absolute numbers differ from the paper (the substrate is a calibrated
// simulator, not IBM Cloud); the reproduced quantity is the shape — who
// wins, by roughly what factor, and where the crossovers fall.
package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mlless/internal/core"
	"mlless/internal/trace"
)

// Table is a printable experiment result.
type Table struct {
	ID     string     // the experiment identifier ("fig4", "table3", ...)
	Title  string     // what the experiment shows
	Header []string   // the column names
	Rows   [][]string // formatted cells
	Notes  []string   // caveats (calibration, substitutions)
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for _, row := range append([][]string{t.Header}, t.Rows...) {
		for i, c := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], len(c))
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&sb, "%-*s  ", w, c)
		}
		sb.WriteString("\n")
	}
	rule := make([]string, len(widths))
	for i, w := range widths {
		rule[i] = strings.Repeat("-", w)
	}
	for _, row := range append([][]string{t.Header, rule}, t.Rows...) {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the table as RFC-4180 CSV (header row first) for external
// plotting tools.
func (t Table) CSV() string {
	var sb strings.Builder
	// Writes to a strings.Builder cannot fail.
	_ = csv.NewWriter(&sb).WriteAll(append([][]string{t.Header}, t.Rows...))
	return sb.String()
}

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks datasets, worker counts and sweeps so the whole
	// suite runs in seconds, each table pinned by a test; the full
	// configuration reproduces the paper's settings at simulator scale.
	Quick bool
	// TraceDir, when non-empty, dumps a Chrome trace-event JSON file per
	// MLLess training run into this directory (created on demand), named
	// after the experiment point: the experiment ID and the row's key
	// cells ("fig4-PMF-ML10M-12-0.7.trace.json").
	TraceDir string
}

// runJob executes one MLLess training run for an experiment point,
// dumping its virtual-time trace when Options.TraceDir is set. label
// names the point and must be unique within the experiment.
func runJob(opts Options, cl *core.Cluster, job core.Job, label string) (*core.Result, error) {
	if opts.TraceDir == "" {
		return core.Run(cl, job)
	}
	job.Trace = trace.New()
	res, err := core.Run(cl, job)
	if err != nil {
		return nil, err
	}
	if err := dumpTrace(opts.TraceDir, label, job.Trace); err != nil {
		return nil, fmt.Errorf("%s: dump trace: %w", label, err)
	}
	return res, nil
}

// dumpTrace writes one tracer's events as <dir>/<label>.trace.json.
func dumpTrace(dir, label string, tr *trace.Tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, label+".trace.json"))
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, tr.Events()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Runner executes one experiment.
type Runner func(Options) (Table, error)

// Entry is one registered experiment.
type Entry struct {
	ID  string
	Run Runner
}

// Registry maps experiment IDs to runners, in evaluation-section order.
func Registry() []Entry {
	return []Entry{
		{"fig2a", Fig2a},
		{"fig2b", Fig2b},
		{"fig2c", Fig2c},
		{"fig2d", Fig2d},
		{"fig3", Fig3},
		{"table1", Table1},
		{"table2", Table2},
		{"fig4", Fig4},
		{"fig5", Fig5},
		{"table3", Table3},
		{"fig6", Fig6},
		{"fig7", Fig7},
		// Ablations beyond the paper's figures (see DESIGN.md §3).
		{"abl-filter", AblFilter},
		{"abl-knee", AblKnee},
		{"abl-merge", AblMerge},
		{"abl-allreduce", AblAllReduce},
		{"abl-startup", AblStartup},
		{"abl-ssp", AblSSP},
		{"abl-faults", AblFaults},
		{"abl-async", AblAsync},
		{"abl-exchange", AblExchange},
		{"abl-dataset", AblDataset},
		{"abl-tenancy", AblTenancy},
	}
}

// Lookup returns the runner for id (case-insensitive), or false.
func Lookup(id string) (Runner, bool) {
	id = strings.ToLower(strings.TrimSpace(id))
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

// IDs lists the registered experiment identifiers in order.
func IDs() []string {
	reg := Registry()
	out := make([]string, len(reg))
	for i, e := range reg {
		out[i] = e.ID
	}
	return out
}

// fmtF renders a float compactly.
func fmtF(v float64) string { return fmt.Sprintf("%.4g", v) }
