package trace

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// PhaseNames are the engine-phase span names that make up a training
// step's time decomposition (the §5 t_step breakdown): the mini-batch
// fetch from object storage, local gradient/optimizer/filter compute,
// publishing the significant update, collective reduction rounds,
// pulling and merging peer updates, and the BSP barrier wait. "merge"
// is the one-shot reintegration of an evicted peer's replica; "reduce"
// occurs only under the tree exchange strategy.
var PhaseNames = []string{"merge", "fetch", "compute", "publish", "reduce", "pull", "barrier"}

// PhaseStat aggregates one phase's durations across workers.
type PhaseStat struct {
	// N is the sample count (one per worker that ran the phase).
	N int
	// Mean, P50, P95 and Max summarize the per-worker durations.
	Mean time.Duration
	P50  time.Duration
	P95  time.Duration
	Max  time.Duration
}

// StepBreakdown is one step's phase decomposition.
type StepBreakdown struct {
	// Step is the 1-based training step.
	Step int
	// ByPhase maps a PhaseNames entry to its cross-worker stats;
	// phases that did not occur are absent.
	ByPhase map[string]PhaseStat
}

// Stat returns the stats for one phase (zero value if absent).
func (b StepBreakdown) Stat(name string) PhaseStat { return b.ByPhase[name] }

// Timeline aggregates the engine-phase spans of a trace into per-step
// breakdowns, ordered by step. Spans are selected by category
// CatEngine, a name in PhaseNames and an integer "step" arg; everything
// else (substrate spans, lifecycle events) is ignored.
func Timeline(events []Event) []StepBreakdown {
	type key struct {
		step  int
		phase string
	}
	phaseSet := make(map[string]bool, len(PhaseNames))
	for _, n := range PhaseNames {
		phaseSet[n] = true
	}
	samples := make(map[key][]time.Duration)
	for i := range events {
		ev := &events[i]
		if ev.Cat != CatEngine || ev.Phase != 'X' || !phaseSet[ev.Name] {
			continue
		}
		step, ok := ev.ArgInt("step")
		if !ok {
			continue
		}
		k := key{step: int(step), phase: ev.Name}
		samples[k] = append(samples[k], ev.Dur)
	}

	bySteps := make(map[int]*StepBreakdown)
	var steps []int
	for k, ds := range samples {
		b, ok := bySteps[k.step]
		if !ok {
			b = &StepBreakdown{Step: k.step, ByPhase: make(map[string]PhaseStat)}
			bySteps[k.step] = b
			steps = append(steps, k.step)
		}
		b.ByPhase[k.phase] = summarize(ds)
	}
	sort.Ints(steps)
	out := make([]StepBreakdown, len(steps))
	for i, s := range steps {
		out[i] = *bySteps[s]
	}
	return out
}

// summarize computes order statistics over a sample of durations.
func summarize(ds []time.Duration) PhaseStat {
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	n := len(sorted)
	return PhaseStat{
		N:    n,
		Mean: sum / time.Duration(n),
		P50:  quantile(sorted, 0.50),
		P95:  quantile(sorted, 0.95),
		Max:  sorted[n-1],
	}
}

// quantile returns the nearest-rank q-quantile of a sorted sample.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// WriteTimeline renders the per-step decomposition as a table: one row
// per step with the cross-worker median of each phase (barrier shows
// the max — the slowest worker paces the step), followed by a summary
// block with p50/p95/max over all (step, worker) samples per phase.
func WriteTimeline(w io.Writer, events []Event) error {
	steps := Timeline(events)
	if len(steps) == 0 {
		_, err := fmt.Fprintln(w, "timeline: no engine phase spans recorded")
		return err
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%8.2f", float64(d)/float64(time.Millisecond)) }

	if _, err := fmt.Fprintf(w, "%6s %8s %8s %8s %8s %8s %8s %8s %4s\n",
		"step", "merge", "fetch", "compute", "publish", "reduce", "pull", "barrier", "n"); err != nil {
		return err
	}
	all := make(map[string][]time.Duration)
	for _, b := range steps {
		n := 0
		cols := make([]string, 0, len(PhaseNames))
		for _, phase := range PhaseNames {
			st := b.Stat(phase)
			if st.N > n {
				n = st.N
			}
			v := st.P50
			if phase == "barrier" {
				v = st.Max
			}
			cols = append(cols, ms(v))
			if st.N > 0 {
				all[phase] = append(all[phase], v)
			}
		}
		if _, err := fmt.Fprintf(w, "%6d %s %s %s %s %s %s %s %4d\n",
			b.Step, cols[0], cols[1], cols[2], cols[3], cols[4], cols[5], cols[6], n); err != nil {
			return err
		}
	}

	if _, err := fmt.Fprintf(w, "\n%-8s %10s %10s %10s (ms across steps)\n", "phase", "p50", "p95", "max"); err != nil {
		return err
	}
	for _, phase := range PhaseNames {
		ds := all[phase]
		if len(ds) == 0 {
			continue
		}
		st := summarize(ds)
		if _, err := fmt.Fprintf(w, "%-8s %10s %10s %10s\n",
			phase, ms(st.P50), ms(st.P95), ms(st.Max)); err != nil {
			return err
		}
	}
	return nil
}
