// Command mlless-bench regenerates the paper's tables and figures on
// the simulated cloud.
//
// Usage:
//
//	mlless-bench -experiment fig4          # one experiment
//	mlless-bench -experiment all -quick    # whole suite, small scale
//	mlless-bench -list
//	mlless-bench -experiment abl-faults -quick -cpuprofile cpu.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mlless/internal/experiments"
	"mlless/internal/hostprof"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mlless-bench:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		exp    = flag.String("experiment", "all", "experiment id or 'all' (see -list)")
		quick  = flag.Bool("quick", false, "small-scale configuration")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		csvDir = flag.String("csv", "", "also write each table as CSV into this directory")
		series = flag.Bool("series", false, "with fig6: also print the loss-vs-time series per workload")
		trDir  = flag.String("trace-dir", "", "dump a Chrome trace-event JSON per MLLess run into this directory")
	)
	prof := hostprof.Register(flag.CommandLine)
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProf(&err)

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return nil
	}

	opts := experiments.Options{Quick: *quick, TraceDir: *trDir}
	ids := experiments.IDs()
	if *exp != "all" {
		if _, ok := experiments.Lookup(*exp); !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *exp)
		}
		ids = []string{*exp}
	}
	emit := func(table experiments.Table) error {
		fmt.Print(table)
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*csvDir, table.ID+".csv")
		return os.WriteFile(path, []byte(table.CSV()), 0o644)
	}
	for _, id := range ids {
		runner, _ := experiments.Lookup(id)
		start := time.Now()
		table, err := runner(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := emit(table); err != nil {
			return err
		}
		fmt.Printf("(%s regenerated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))

		if id == "fig6" && *series {
			workloads, _ := experiments.Fig6Workloads(opts)
			for _, wl := range workloads {
				st, err := experiments.Fig6Series(opts, wl, 40)
				if err != nil {
					return fmt.Errorf("fig6 series: %w", err)
				}
				st.ID = "fig6-series-" + wl.Name
				if err := emit(st); err != nil {
					return err
				}
				fmt.Println()
			}
		}
	}
	return nil
}
