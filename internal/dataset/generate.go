package dataset

import (
	"hash/fnv"
	"math"
	"strconv"

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
// implementing the "hashing trick" of §6.1.
func hashCat(field, value, hashDim int) uint32 {
	h := fnv.New32a()
	// Writes to fnv's hash never fail.
	_, _ = h.Write([]byte(strconv.Itoa(field)))
	_, _ = h.Write([]byte{':'})
	_, _ = h.Write([]byte(strconv.Itoa(value)))
	return h.Sum32() % uint32(hashDim)
}

// GenerateCriteo produces a synthetic click-prediction dataset: labels
// are drawn from a ground-truth logistic model over the hashed features,
// so a trained sparse LR can genuinely converge. Numerical features are
// log-normal (as raw ad-traffic counters are) and are NOT normalized
// here — NormalizeInPlace applies the paper's min-max scaling
// afterwards.
func GenerateCriteo(cfg CriteoConfig) *Dataset {
	rng := xrand.New(cfg.Seed)
	dim := cfg.HashDim + cfg.NumericFeatures

	// Ground-truth weights over the full feature space.
	truth := make([]float64, dim+1) // +1 bias
	for i := range truth {
		truth[i] = rng.NormFloat64() * cfg.Separation
	}

	// Zipf-distributed categorical values: a few values dominate each
	// field, as in real ad data.
	zipf := xrand.NewZipf(rng, cfg.Cardinality, 1.1)

	samples := make([]Sample, cfg.Samples)
	for n := range samples {
		v := sparse.NewWithCapacity(cfg.NumericFeatures + cfg.CategoricalFeatures)
		// Numerical features: log-normal counters, stored in the first
		// NumericFeatures coordinates.
		for f := 0; f < cfg.NumericFeatures; f++ {
			v.Set(uint32(f), math.Exp(rng.NormFloat64()))
		}
		// Categorical features: one active hashed coordinate per field.
		for f := 0; f < cfg.CategoricalFeatures; f++ {
			idx := uint32(cfg.NumericFeatures) + hashCat(f, zipf.Next(), cfg.HashDim)
			v.Set(idx, 1)
		}
		// Label from the ground-truth logistic model. Numeric features
		// enter the score through their normalized value (min-max over a
		// log-normal concentrates near 0) so the generator's separability
		// survives normalization.
		score := truth[dim]
		v.ForEachSorted(func(i uint32, val float64) {
			x := val
			if int(i) < cfg.NumericFeatures {
				x = math.Min(x/10, 1)
			}
			score += truth[i] * x
		})
		label := 0.0
		if rng.Bernoulli(1 / (1 + math.Exp(-score))) {
			label = 1
		}
		samples[n] = Sample{Features: v, Label: label, User: -1, Item: -1}
	}
	return &Dataset{Samples: samples, FeatureDim: dim}
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
