package baseline_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mlless/internal/baseline/pywren"
	"mlless/internal/baseline/serverful"
	"mlless/internal/core"
	"mlless/internal/trace"
)

// systemGolden renders everything a baseline run reports that depends on
// its charge model: every loss point (loss bits, time, duration, bytes,
// workers), the run totals and each bill component.
func systemGolden(res *core.Result) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "converged %v diverged %v steps %d final_loss %016x\n",
		res.Converged, res.Diverged, res.Steps, math.Float64bits(res.FinalLoss))
	fmt.Fprintf(&b, "exec_time_ns %d total_update_bytes %d\n", res.ExecTime, res.TotalUpdateBytes)
	b.WriteString("# step time_ns duration_ns loss raw_loss (float64 bits, hex) update_bytes workers\n")
	for _, p := range res.History {
		fmt.Fprintf(&b, "%d %d %d %016x %016x %d %d\n", p.Step, p.Time, p.Duration,
			math.Float64bits(p.Loss), math.Float64bits(p.RawLoss), p.UpdateBytes, p.Workers)
	}
	b.WriteString("# cost: name kind duration_ns dollars (float64 bits, hex)\n")
	for _, c := range res.Cost.Components {
		fmt.Fprintf(&b, "%s %s %d %016x\n", c.Name, c.Kind, c.Duration, math.Float64bits(c.Dollars))
	}
	fmt.Fprintf(&b, "total %016x\n", math.Float64bits(res.Cost.Total))
	return b.Bytes()
}

// TestSystemGoldens pins each baseline's time, bytes and dollars at P = 4
// on the parity workloads: testdata/system-<system>-<model>.golden holds
// the untraced run plus the SHA-256 of the traced run's Chrome trace, and
// the traced run must report exactly what the untraced one does.
func TestSystemGoldens(t *testing.T) {
	systems := []struct {
		name  string
		train func(*core.Cluster, core.Job) (*core.Result, error)
	}{
		{"pytorch", func(cl *core.Cluster, job core.Job) (*core.Result, error) {
			return serverful.Train(cl.COS, job, serverful.DefaultConfig())
		}},
		{"pywren", func(cl *core.Cluster, job core.Job) (*core.Result, error) {
			return pywren.Train(cl.Platform, cl.COS, job, pywren.DefaultConfig())
		}},
	}
	for _, sys := range systems {
		for _, m := range []struct {
			name string
			pmf  bool
		}{{"lr", false}, {"pmf", true}} {
			t.Run(sys.name+"-"+m.name, func(t *testing.T) {
				run := func(tr *trace.Tracer) []byte {
					cl, job := stageJob(t, m.pmf)
					job.Spec.Workers = 4
					job.Trace = tr
					res, err := sys.train(cl, job)
					if err != nil {
						t.Fatal(err)
					}
					return systemGolden(res)
				}
				got := run(nil)
				tr := trace.New()
				if traced := run(tr); !bytes.Equal(got, traced) {
					t.Fatalf("tracing changed the run:\nuntraced:\n%s\ntraced:\n%s", got, traced)
				}
				var chrome bytes.Buffer
				if err := trace.WriteChrome(&chrome, tr.Events()); err != nil {
					t.Fatal(err)
				}
				got = fmt.Appendf(got, "trace_sha256 %x\n", sha256.Sum256(chrome.Bytes()))

				path := filepath.Join("testdata", "system-"+sys.name+"-"+m.name+".golden")
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
					t.Fatalf("%s diverges from %s:\nwant:\n%s\ngot:\n%s", sys.name, path, want, got)
				}
			})
		}
	}
}
