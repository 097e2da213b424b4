// Package eval measures retrieval quality: precision@k, recall, average
// precision, and the harness that regenerates the paper's Table 1
// ("precision at 20, 30, 50 and 100 documents" per feature and combined)
// on the synthetic corpus with category ground truth.
//
// Relevance surrogate: the paper judged relevance with a user study over
// category-organised clips ("e-learning, sports, cartoon, movies"); here a
// retrieved key frame is relevant iff its source video belongs to the
// query's category.
package eval

// PrecisionAtK returns the fraction of the first k results that are
// relevant. Fewer than k results are padded as irrelevant (the paper
// reports precision at fixed document cut-offs).
func PrecisionAtK(relevant []bool, k int) float64 {
	if k <= 0 {
		return 0
	}
	hits := 0
	for i := 0; i < k && i < len(relevant); i++ {
		if relevant[i] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// AveragePrecision returns the mean of precision values at each relevant
// rank (AP), the classic ranked-retrieval summary.
func AveragePrecision(relevant []bool, totalRelevant int) float64 {
	if totalRelevant <= 0 {
		return 0
	}
	hits := 0
	var sum float64
	for i, r := range relevant {
		if r {
			hits++
			sum += float64(hits) / float64(i+1)
		}
	}
	return sum / float64(totalRelevant)
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
