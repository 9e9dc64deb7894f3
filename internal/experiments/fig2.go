package experiments

import (
	"fmt"
	"time"

	"mlless/internal/core"
	"mlless/internal/fit"
	"mlless/internal/knee"
)

// fig2Run executes the Fig 2 base job — PMF on MovieLens-1M-scale data —
// with the given worker count and step budget, returning the result.
func fig2Run(opts Options, workers, steps int) (*core.Result, error) {
	wl := PMF1M(opts.Quick)
	cl, job := wl.Make(workers)
	job.Spec.TargetLoss = 0
	job.Spec.MaxSteps = steps
	return runJob(opts, cl, job, fmt.Sprintf("fig2-p%d-steps%d", workers, steps))
}

// Fig2a reproduces Fig 2a: training speed (steps/s) of PMF (ML-1M) as
// the number of workers varies. The paper observes speed decreasing
// roughly linearly with workers because per-step communication is O(p).
func Fig2a(opts Options) (Table, error) {
	workerCounts := pick(opts, []int{4, 8, 12, 16, 20, 24}, []int{4, 12, 24})
	steps := pick(opts, 40, 15)
	t := Table{
		ID:     "fig2a",
		Title:  "Training speed vs number of workers (PMF, MovieLens-1M scale)",
		Header: []string{"workers", "steps/s", "step-duration"},
	}
	for _, p := range workerCounts {
		res, err := fig2Run(opts, p, steps)
		if err != nil {
			return Table{}, fmt.Errorf("fig2a (P=%d): %w", p, err)
		}
		// Exclude the first step (cold start) from the rate.
		if len(res.History) < 2 {
			return Table{}, fmt.Errorf("fig2a (P=%d): too few steps", p)
		}
		n := len(res.History) - 1
		span := res.History[n].Time - res.History[0].Time
		t.Rows = append(t.Rows, []string{fmt.Sprint(p), fmt.Sprintf("%.3f", float64(n)/span.Seconds()),
			(span / time.Duration(n)).Round(time.Millisecond).String()})
	}
	t.Notes = append(t.Notes, "speed decreases with P: per-step pull traffic is O(P) through Redis (paper Fig 2a)")
	return t, nil
}

// fig2Curve runs the Fig 2b-d base job long enough to fit curves and
// returns the smoothed loss history.
func fig2Curve(opts Options) ([]float64, error) {
	steps := 400
	if opts.Quick {
		steps = 150
	}
	res, err := fig2Run(opts, 12, steps)
	if err != nil {
		return nil, err
	}
	losses := make([]float64, len(res.History))
	for i, p := range res.History {
		losses[i] = p.Loss
	}
	return losses, nil
}

// Fig2b reproduces Fig 2b: fitting the reference curve L_P(t) (Eq. 2)
// to the training-loss history. The paper's example fit is θ = (0.05,
// 1.58, 0.58, 0.49); ours differs numerically (different data) but the
// same family must fit with low residual error.
func Fig2b(opts Options) (Table, error) {
	losses, err := fig2Curve(opts)
	if err != nil {
		return Table{}, fmt.Errorf("fig2b: %w", err)
	}
	ts := make([]float64, len(losses))
	for i := range ts {
		ts[i] = float64(i + 1)
	}
	fitted, err := fit.FitCurve(fit.ReferenceCurve{}, ts, losses, fit.FitOptions{})
	if err != nil {
		return Table{}, fmt.Errorf("fig2b: %w", err)
	}
	// Mean relative fit error across the history.
	sum := 0.0
	for i := range ts {
		sum += fit.PredictionError(fitted.Eval(ts[i]), losses[i])
	}
	meanErr := sum / float64(len(ts))

	t := Table{
		ID:     "fig2b",
		Title:  "Reference-curve fit L_P(t) = 1/(θ0·t^θ1 + θ2) + θ3 (Eq. 2)",
		Header: []string{"theta0", "theta1", "theta2", "theta3", "mean-rel-fit-err"},
		Rows: [][]string{{
			fmtF(fitted.Theta[0]), fmtF(fitted.Theta[1]),
			fmtF(fitted.Theta[2]), fmtF(fitted.Theta[3]),
			fmt.Sprintf("%.4f", meanErr),
		}},
		Notes: []string{"paper's example fit on its data: θ = (0.05, 1.58, 0.58, 0.49)"},
	}
	return t, nil
}

// Fig2c reproduces Fig 2c: relative prediction error when estimating
// loss 50-200 steps in advance of the knee, for both curve families.
// The paper reports errors below 1.5%.
func Fig2c(opts Options) (Table, error) {
	losses, err := fig2Curve(opts)
	if err != nil {
		return Table{}, fmt.Errorf("fig2c: %w", err)
	}
	kneeIdx, ok := (knee.SlopeThreshold{}).Detect(losses)
	if !ok {
		kneeIdx = len(losses) / 3
	}
	// The reference curve L_P is fitted on the fast region (history up
	// to the knee); ℓ_p is the slow-region family, fitted on a window of
	// post-knee points — exactly the roles the scheduler gives them
	// (§4.2, "Loss deviation").
	refTs := make([]float64, kneeIdx)
	refYs := make([]float64, kneeIdx)
	for i := 0; i < kneeIdx; i++ {
		refTs[i] = float64(i + 1)
		refYs[i] = losses[i]
	}
	ref, err := fit.FitCurve(fit.ReferenceCurve{}, refTs, refYs, fit.FitOptions{})
	if err != nil {
		return Table{}, fmt.Errorf("fig2c: reference fit: %w", err)
	}
	window := 60
	if opts.Quick {
		window = 25
	}
	if kneeIdx+window > len(losses) {
		window = len(losses) - kneeIdx
	}
	slowTs := make([]float64, window)
	slowYs := make([]float64, window)
	for i := 0; i < window; i++ {
		slowTs[i] = float64(kneeIdx + i + 1)
		slowYs[i] = losses[kneeIdx+i]
	}
	slow, err := fit.FitCurve(fit.SlowCurve{}, slowTs, slowYs, fit.FitOptions{})
	if err != nil {
		return Table{}, fmt.Errorf("fig2c: slow fit: %w", err)
	}

	horizons := []int{50, 100, 150, 200}
	if opts.Quick {
		horizons = []int{25, 50}
	}
	t := Table{
		ID:     "fig2c",
		Title:  "Prediction error estimating 50-200 steps in advance",
		Header: []string{"steps-ahead", "err L_P(t)", "err l_p(t)"},
		Notes: []string{
			fmt.Sprintf("knee detected at step %d; L_P fitted pre-knee, l_p on %d post-knee points", kneeIdx+1, window),
			"paper reports errors < 1.5%",
		},
	}
	base := kneeIdx + window
	for _, h := range horizons {
		target := base + h
		if target >= len(losses) {
			continue
		}
		actual := losses[target]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", h),
			fmt.Sprintf("%.4f", fit.PredictionError(ref.Eval(float64(target+1)), actual)),
			fmt.Sprintf("%.4f", fit.PredictionError(slow.Eval(float64(target+1)), actual)),
		})
	}
	return t, nil
}

// Fig2d reproduces Fig 2d: the prediction error of ℓ_p(t) shrinking as
// more post-knee points are collected for fitting.
func Fig2d(opts Options) (Table, error) {
	losses, err := fig2Curve(opts)
	if err != nil {
		return Table{}, fmt.Errorf("fig2d: %w", err)
	}
	kneeIdx, ok := (knee.SlopeThreshold{}).Detect(losses)
	if !ok {
		kneeIdx = len(losses) / 3
	}
	windows := []int{20, 40, 80, 160}
	horizon := 60
	if opts.Quick {
		windows = []int{15, 30}
		horizon = 20
	}
	t := Table{
		ID:     "fig2d",
		Title:  "Prediction error of l_p(t) as fitting points accumulate",
		Header: []string{"fit-points", "rel-err@+%d-steps"},
	}
	t.Header[1] = fmt.Sprintf("rel-err@+%d-steps", horizon)
	for _, w := range windows {
		end := kneeIdx + w
		target := end + horizon
		if target >= len(losses) {
			continue
		}
		ts := make([]float64, 0, w)
		ys := make([]float64, 0, w)
		for i := kneeIdx; i < end; i++ {
			ts = append(ts, float64(i+1))
			ys = append(ys, losses[i])
		}
		fitted, err := fit.FitCurve(fit.SlowCurve{}, ts, ys, fit.FitOptions{})
		if err != nil {
			return Table{}, fmt.Errorf("fig2d (w=%d): %w", w, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%.4f", fit.PredictionError(fitted.Eval(float64(target+1)), losses[target])),
		})
	}
	t.Notes = append(t.Notes, "error shrinks as the post-knee window grows (paper Fig 2d)")
	return t, nil
}
