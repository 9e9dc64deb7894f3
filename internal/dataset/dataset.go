// Package dataset provides the training data substrate of the
// reproduction: the sample type, synthetic generators shaped like the
// paper's datasets (Criteo display ads for sparse logistic regression,
// MovieLens for matrix factorization, §6.1), in-memory and streaming,
// min-max normalization, and the one data tier: staging mini-batches as
// columnar shards in object storage (internal/shard) and fetching them
// back as zero-copy views, one ranged read per worker step (§3.2).
//
// The real Criteo and MovieLens files are not redistributable and not
// reachable offline, so the generators draw from ground-truth models with
// the same shape parameters (feature counts, hashing dimension, sparsity,
// rating scale, heavy-tailed item popularity). What the experiments
// measure — convergence speed, update sparsity, bytes exchanged — depends
// on those shape parameters, not on the identity of the movies.
package dataset

import "mlless/internal/sparse"

// Sample is one training example. Two kinds exist:
//
//   - feature samples (logistic/linear regression): Features and Label
//     are set, User and Item are -1;
//   - rating samples (matrix factorization): User, Item and Label (the
//     rating) are set, Features is nil.
type Sample struct {
	// Features is the sparse feature vector, nil for rating samples.
	Features *sparse.Vector
	// Label is the target: the class in {0,1} for logistic regression,
	// the rating for matrix factorization.
	Label float64
	// User and Item index the rating matrix; both are -1 for feature
	// samples.
	User, Item int
}

// IsRating reports whether the sample is a rating triple.
func (s Sample) IsRating() bool { return s.User >= 0 }

// Dataset is an in-memory dataset plus its shape metadata.
type Dataset struct {
	// Samples holds the examples in generation order; StageShards
	// shuffles deterministically.
	Samples []Sample
	// FeatureDim is the width of feature samples (0 for rating data).
	FeatureDim int
	// NumUsers and NumItems size the rating matrix (0 for feature data).
	NumUsers, NumItems int
	// RatingMean is the global mean rating (matrix factorization bias).
	RatingMean float64
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Split returns the samples partitioned into mini-batches of size b
// (the final batch may be short). It does not copy samples.
func (d *Dataset) Split(b int) [][]Sample {
	if b <= 0 {
		b = len(d.Samples)
	}
	var out [][]Sample
	for i := 0; i < len(d.Samples); i += b {
		end := i + b
		if end > len(d.Samples) {
			end = len(d.Samples)
		}
		out = append(out, d.Samples[i:end])
	}
	return out
}
