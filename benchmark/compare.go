package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// manifestFile is the part of BENCHMARK.json -compare needs.
type manifestFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// setupFloorSeconds keeps setup_s, tens of milliseconds on three of the
// workloads, from tripping its relative bound on scheduler noise: it
// regresses only if it worsens by more than the bound and by more than
// this.
const setupFloorSeconds = 0.1

var errRegressed = errors.New("regression: at least one metric worsened by more than its bound")

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles applies BENCHMARK.json's bounds to two result files, a
// the parent and b the change, one row per (metric, workload):
//
//	ok          b's median is no worse than a's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  a side's own p25–p75 spread exceeds the bound, so the
//	            runs cannot tell
//	changed     a virtual-clock (sim_*) value differs at all between two
//	            runs of the same seed, though within the bound: the
//	            model's result moved, which a host-side change must not do
//
// Two runs of the same seed also get a digest row per workload. It
// returns errRegressed if any row regressed.
func compareFiles(w io.Writer, manifestPath, pathA, pathB string) error {
	var man manifestFile
	var a, b resultFile
	if err := errors.Join(readJSON(manifestPath, &man), readJSON(pathA, &a), readJSON(pathB, &b)); err != nil {
		return err
	}
	sameSeed := a.Seed == b.Seed && a.Smoke == b.Smoke
	fmt.Fprintf(w, "a: %s seed %d commit %s (%d cores)\nb: %s seed %d commit %s (%d cores)\n",
		pathA, a.Seed, a.Host.Commit, a.Host.NProc, pathB, b.Seed, b.Host.Commit, b.Host.NProc)
	fmt.Fprintf(w, "%-18s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "status")

	inB := make(map[string]workloadResult)
	for _, wl := range b.Workloads {
		inB[wl.Name] = wl
	}
	regressed := false
	for _, wa := range a.Workloads {
		wb, ok := inB[wa.Name]
		if !ok {
			continue
		}
		for _, def := range man.EndToEnd {
			ma, okA := wa.EndToEnd[def.Name]
			mb, okB := wb.EndToEnd[def.Name]
			if !okA || !okB || ma.Dist == nil || mb.Dist == nil {
				continue
			}
			worse := 0.0
			if ma.Value != 0 {
				worse = (mb.Value - ma.Value) / ma.Value
				if def.Better == "higher" {
					worse = -worse
				}
			}
			status := "ok"
			switch {
			case ma.Dist.spread() > def.Bound || mb.Dist.spread() > def.Bound:
				status = "unresolved"
			case worse > def.Bound && !(def.Name == "setup_s" && mb.Value-ma.Value <= setupFloorSeconds):
				status = "regressed"
				regressed = true
			case sameSeed && strings.HasPrefix(def.Name, "sim_") && ma.Value != mb.Value:
				status = "changed"
			}
			fmt.Fprintf(w, "%-18s %-26s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				wa.Name, def.Name, ma.Value, mb.Value, worse*100, def.Bound*100, status)
		}
		if sameSeed {
			status := "same"
			if wa.Digest != wb.Digest {
				status = "differs"
			}
			fmt.Fprintf(w, "%-18s %-26s %14.12s %14.12s %9s %7s  %s\n", wa.Name, "digest", wa.Digest, wb.Digest, "", "", status)
		}
	}
	if regressed {
		return errRegressed
	}
	return nil
}
