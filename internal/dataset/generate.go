package dataset

import (
	"math"
	"runtime"
	"strconv"
	"sync"

	"mlless/internal/sparse"
	"mlless/internal/xrand"
)

// CriteoConfig parameterizes the synthetic Criteo-like generator. The
// defaults mirror the paper's preprocessing (§6.1): 13 numerical and 26
// categorical features, categorical values hashed into a sparse vector of
// dimension 1e5 ("hashing trick"), so every sample has ≈39 non-zeros out
// of 100 013 dimensions.
type CriteoConfig struct {
	// Samples is the number of examples to generate. The real dataset
	// has 47M; experiments use scaled-down counts with identical shape.
	Samples int
	// NumericFeatures is the count of dense numerical features.
	NumericFeatures int
	// CategoricalFeatures is the count of categorical fields.
	CategoricalFeatures int
	// HashDim is the hashed categorical space ("hashing trick" width).
	HashDim int
	// Cardinality is the number of distinct values per categorical field.
	Cardinality int
	// Separation scales the ground-truth weights; larger values make the
	// classes more separable, i.e. lower attainable BCE loss.
	Separation float64
	// Seed drives all randomness.
	Seed uint64
}

// DefaultCriteoConfig returns the paper's shape at a laptop-scale sample
// count. Separation is tuned so the Bayes-optimal BCE sits around 0.5
// and well-trained models reach ≈ 0.55, making the paper's 0.58
// convergence threshold (§6.2) meaningful rather than trivial.
func DefaultCriteoConfig() CriteoConfig {
	return CriteoConfig{
		Samples:             60_000,
		NumericFeatures:     13,
		CategoricalFeatures: 26,
		HashDim:             100_000,
		Cardinality:         10_000,
		Separation:          0.22,
		Seed:                1,
	}
}

// hashCat maps (field, value) into the hashed categorical space,
// implementing the "hashing trick" of §6.1: FNV-1a over "field:value"
// in decimal, reduced modulo hashDim.
func hashCat(field, value, hashDim int) uint32 {
	var buf [48]byte
	b := strconv.AppendInt(buf[:0], int64(field), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(value), 10)
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h % uint32(hashDim)
}

// criteoChunkSamples is how many samples GenerateCriteo hands a row
// worker at a time.
const criteoChunkSamples = 4096

// criteoGen is a Criteo generator's ground truth. It draws nothing
// after construction: scanCriteo makes the draws on one goroutine, in
// order, and row turns them into samples on any goroutine.
type criteoGen struct {
	cfg CriteoConfig
	// truth holds the ground-truth weights over the feature space, bias
	// last.
	truth []float64
}

// newCriteoGen draws the ground truth and returns it with the RNG and
// the categorical Zipf sampler the samples' draws continue from.
func newCriteoGen(cfg CriteoConfig) (*criteoGen, *xrand.RNG, *xrand.Zipf) {
	rng := xrand.New(cfg.Seed)
	truth := make([]float64, cfg.HashDim+cfg.NumericFeatures+1)
	for i := range truth {
		truth[i] = rng.NormFloat64() * cfg.Separation
	}
	// Zipf-distributed categorical values: a few values dominate each
	// field, as in real ad data.
	zipf := xrand.NewZipf(rng, cfg.Cardinality, 1.1)
	return &criteoGen{cfg: cfg, truth: truth}, rng, zipf
}

// criteoDraws holds the random draws of consecutive samples.
type criteoDraws struct {
	normals []float64 // NumericFeatures per sample
	cats    []int32   // CategoricalFeatures Zipf ranks per sample
	u       []float64 // the label's uniform, one per sample
}

// scanCriteo makes the random draws of the next n samples, per sample
// in this order: the numeric normals, the categorical Zipf ranks, the
// label uniform. Every generator path draws through it, so one seed
// gives one sequence of samples.
func scanCriteo(cfg CriteoConfig, rng *xrand.RNG, zipf *xrand.Zipf, n int) *criteoDraws {
	d := &criteoDraws{
		normals: make([]float64, n*cfg.NumericFeatures),
		cats:    make([]int32, n*cfg.CategoricalFeatures),
		u:       make([]float64, n),
	}
	normals, cats := d.normals, d.cats
	for k := 0; k < n; k++ {
		for f := 0; f < cfg.NumericFeatures; f++ {
			normals[f] = rng.NormFloat64()
		}
		for f := 0; f < cfg.CategoricalFeatures; f++ {
			cats[f] = int32(zipf.Next())
		}
		normals, cats = normals[cfg.NumericFeatures:], cats[cfg.CategoricalFeatures:]
		d.u[k] = rng.Float64()
	}
	return d
}

// row appends sample k of d to idx and val as an ascending run and
// returns the extended arrays with the sample's label. It is a pure
// function of the draws.
//
// Numerical features are log-normal counters (as raw ad-traffic
// counters are) in the first NumericFeatures coordinates, NOT
// normalized here. Each categorical field sets one hashed coordinate
// to 1; fields that collide set the same one. The label comes from the
// ground-truth logistic model, its score summed in ascending
// coordinate order; numeric features enter it through their normalized
// value (min-max over a log-normal concentrates near 0) so the
// generator's separability survives normalization.
func (g *criteoGen) row(d *criteoDraws, k int, idx []uint32, val []float64) ([]uint32, []float64, float64) {
	numeric, cat := g.cfg.NumericFeatures, g.cfg.CategoricalFeatures
	score := g.truth[len(g.truth)-1]
	for f, z := range d.normals[k*numeric : (k+1)*numeric] {
		x := math.Exp(z)
		idx = append(idx, uint32(f))
		val = append(val, x)
		score += g.truth[f] * math.Min(x/10, 1)
	}
	// Insertion sort (≤ 26 entries), dropping a coordinate already
	// present.
	first := len(idx)
	for f, c := range d.cats[k*cat : (k+1)*cat] {
		h := uint32(numeric) + hashCat(f, int(c), g.cfg.HashDim)
		j := len(idx)
		for j > first && idx[j-1] > h {
			j--
		}
		if j > first && idx[j-1] == h {
			continue
		}
		idx = append(idx, 0)
		copy(idx[j+1:], idx[j:])
		idx[j] = h
	}
	for _, h := range idx[first:] {
		val = append(val, 1)
		score += g.truth[h]
	}
	label := 0.0
	if d.u[k] < 1/(1+math.Exp(-score)) {
		label = 1
	}
	return idx, val, label
}

// GenerateCriteo produces a synthetic click-prediction dataset: labels
// are drawn from a ground-truth logistic model over the hashed features,
// so a trained sparse LR can genuinely converge. Numerical features are
// NOT normalized here — NormalizeInPlace applies the paper's min-max
// scaling afterwards. The calling goroutine makes the draws; GOMAXPROCS
// workers build the rows, each chunk's into one slab, and every
// sample's features are an ascending run.
func GenerateCriteo(cfg CriteoConfig) *Dataset {
	g, rng, zipf := newCriteoGen(cfg)
	samples := make([]Sample, cfg.Samples)
	chunks := (cfg.Samples + criteoChunkSamples - 1) / criteoChunkSamples
	scan := func(c int) *criteoDraws {
		return scanCriteo(cfg, rng, zipf, min(criteoChunkSamples, cfg.Samples-c*criteoChunkSamples))
	}
	rows := func(c int, d *criteoDraws) struct{} {
		g.fill(d, samples[c*criteoChunkSamples:][:len(d.u)])
		return struct{}{}
	}
	// Rows land in samples directly; there is nothing to emit.
	_ = runPipeline(chunks, runtime.GOMAXPROCS(0), scan, rows, func(int, struct{}) error { return nil })
	return &Dataset{Samples: samples, FeatureDim: cfg.HashDim + cfg.NumericFeatures}
}

// fill builds out's samples from d's draws. The rows share one slab;
// each vector holds its own row, capped, so a later write to one never
// reaches its neighbour.
func (g *criteoGen) fill(d *criteoDraws, out []Sample) {
	width := g.cfg.NumericFeatures + g.cfg.CategoricalFeatures
	idx := make([]uint32, 0, len(out)*width)
	val := make([]float64, 0, len(out)*width)
	vecs := make([]sparse.Vector, len(out))
	for k := range out {
		lo := len(idx)
		var label float64
		idx, val, label = g.row(d, k, idx, val)
		hi := len(idx)
		// A fresh vector holds nothing to append to: the row is the run.
		vecs[k].WriteRun(func([]uint32, []float64) ([]uint32, []float64) {
			return idx[lo:hi:hi], val[lo:hi:hi]
		})
		out[k] = Sample{Features: &vecs[k], Label: label, User: -1, Item: -1}
	}
}

// runPipeline is the generators' scan → work → emit harness: scan runs
// strictly in index order on the calling goroutine (it owns the RNG),
// par workers run work, and emit sees the results on one goroutine in
// index order. In-flight work is bounded by par, so memory stays
// O(par × chunk) whatever the total. The first emit error stops the
// scan and is returned.
func runPipeline[D, R any](n, par int, scan func(i int) D, work func(i int, d D) R, emit func(i int, r R) error) error {
	type job struct {
		i int
		d D
	}
	type result struct {
		i int
		r R
	}
	jobs := make(chan job)
	results := make(chan result, par)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				results <- result{j.i, work(j.i, j.d)}
			}
		}()
	}

	var emitErr error
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		pending := make(map[int]R)
		next := 0
		for r := range results {
			pending[r.i] = r.r
			for {
				out, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				if emitErr == nil {
					if emitErr = emit(next, out); emitErr != nil {
						close(stop)
					}
				}
				next++
			}
		}
	}()

	for i := 0; i < n; i++ {
		j := job{i, scan(i)}
		select {
		case jobs <- j:
		case <-stop:
			i = n // abort: emit already failed
		}
	}
	close(jobs)
	wg.Wait()
	close(results)
	<-done
	return emitErr
}

// MovieLensConfig parameterizes the synthetic MovieLens-like generator.
// Ratings come from a rank-Rank ground-truth factorization plus Gaussian
// noise, so PMF training converges toward RMSE ≈ NoiseStd — placing the
// paper's convergence thresholds (0.82 and 0.738, §6.2) on the curve.
type MovieLensConfig struct {
	// Users and Items size the rating matrix.
	Users, Items int
	// Ratings is the number of observed entries.
	Ratings int
	// Rank is the ground-truth latent dimension.
	Rank int
	// NoiseStd is the rating noise, and the approximate RMSE floor.
	NoiseStd float64
	// SignalStd is the standard deviation of the ground-truth u·m dot
	// product (default 0.8). Together with NoiseStd it sets the rating
	// variance: a mean-predicting model starts at
	// RMSE ≈ √(SignalStd² + NoiseStd²) and a fully trained one
	// approaches NoiseStd — matching MovieLens statistics, where ratings
	// have std ≈ 1.06 and tuned PMF reaches RMSE ≈ 0.73 (§6.2).
	SignalStd float64
	// Seed drives all randomness.
	Seed uint64
}

// MovieLens1MScale is the small MovieLens-shaped job that Fig 2's
// training-speed and curve-fitting studies and the CLI smoke runs use:
// 1 200 users, 2 400 items, 120 000 ratings (≈50 per movie), rank 20.
func MovieLens1MScale() MovieLensConfig {
	return MovieLensConfig{
		Users:     1_200,
		Items:     2_400,
		Ratings:   120_000,
		Rank:      20,
		NoiseStd:  0.70,
		SignalStd: 0.80,
		Seed:      5,
	}
}

// MovieLens10MScale returns a generator shaped like MovieLens-10M
// scaled to run on one machine. The scaling preserves the statistics
// the experiments depend on: ≈125 ratings per movie (ML-10M has ≈140),
// rank-20 factorization, rating std ≈ 1.06 and a trained-RMSE floor
// near the paper's "prudent" 0.738 (§6.2).
func MovieLens10MScale() MovieLensConfig {
	return MovieLensConfig{
		Users:     2_400,
		Items:     12_000,
		Ratings:   600_000,
		Rank:      20,
		NoiseStd:  0.70,
		SignalStd: 0.80,
		Seed:      2,
	}
}

// MovieLens20MScale is shaped like MovieLens-20M: double the users,
// items and ratings of MovieLens10MScale, like the originals.
func MovieLens20MScale() MovieLensConfig {
	return MovieLensConfig{
		Users:     4_800,
		Items:     24_000,
		Ratings:   1_200_000,
		Rank:      20,
		NoiseStd:  0.70,
		SignalStd: 0.80,
		Seed:      3,
	}
}

// GenerateMovieLens produces a synthetic ratings dataset on a 1-5 scale
// with Zipf-distributed item popularity (blockbusters gather most
// ratings) and a rank-cfg.Rank ground truth.
func GenerateMovieLens(cfg MovieLensConfig) *Dataset {
	rng := xrand.New(cfg.Seed)

	if cfg.SignalStd <= 0 {
		cfg.SignalStd = 0.8
	}
	// Per-coordinate factor scale σ such that Var(u·m) = Rank·σ⁴ equals
	// SignalStd².
	scale := math.Sqrt(cfg.SignalStd / math.Sqrt(float64(cfg.Rank)))
	userF := make([][]float64, cfg.Users)
	for u := range userF {
		f := make([]float64, cfg.Rank)
		for k := range f {
			f[k] = rng.NormFloat64() * scale
		}
		userF[u] = f
	}
	itemF := make([][]float64, cfg.Items)
	for i := range itemF {
		f := make([]float64, cfg.Rank)
		for k := range f {
			f[k] = rng.NormFloat64() * scale
		}
		itemF[i] = f
	}

	const mean = 3.5
	itemPop := xrand.NewZipf(rng, cfg.Items, 1.05)

	samples := make([]Sample, cfg.Ratings)
	sum := 0.0
	for n := range samples {
		u := rng.Intn(cfg.Users)
		i := itemPop.Next()
		dot := 0.0
		for k := 0; k < cfg.Rank; k++ {
			dot += userF[u][k] * itemF[i][k]
		}
		r := mean + dot + rng.NormFloat64()*cfg.NoiseStd
		if r < 1 {
			r = 1
		} else if r > 5 {
			r = 5
		}
		samples[n] = Sample{User: u, Item: i, Label: r}
		sum += r
	}
	return &Dataset{
		Samples:    samples,
		NumUsers:   cfg.Users,
		NumItems:   cfg.Items,
		RatingMean: sum / float64(len(samples)),
	}
}
