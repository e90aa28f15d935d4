package stats

import "fmt"

// KendallTauDistance returns the Kendall tau rank distance between two
// rankings over the same item set: the number of item pairs (i, j) whose
// relative order differs between rankA and rankB. rankA[i] is the rank
// of item i under approach A (lower is better). Tied pairs in one ranking
// but not the other count as discordant, matching the indicator-variable
// definition in the WEFR paper (Section IV-B): Θ is 0 only when the order
// of i and j agrees in both rankings.
func KendallTauDistance(rankA, rankB []float64) (int, error) {
	if len(rankA) != len(rankB) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(rankA), len(rankB))
	}
	d := 0
	for i := 0; i < len(rankA); i++ {
		for j := i + 1; j < len(rankA); j++ {
			sa := sign(rankA[i] - rankA[j])
			sb := sign(rankB[i] - rankB[j])
			if sa != sb {
				d++
			}
		}
	}
	return d, nil
}

// MaxKendallTauDistance returns the largest possible Kendall tau rank
// distance for n items: the number of distinct pairs, n*(n-1)/2.
func MaxKendallTauDistance(n int) int {
	if n < 2 {
		return 0
	}
	return n * (n - 1) / 2
}

func sign(x float64) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

// ScoresToRanks converts importance scores (higher is more important)
// into 1-based fractional ranks where the most important feature has
// rank 1. Tied scores share the average of the ranks they span.
func ScoresToRanks(scores []float64) []float64 {
	neg := make([]float64, len(scores))
	for i, s := range scores {
		neg[i] = -s
	}
	return Ranks(neg)
}

// MeanRanks averages the per-item ranks across multiple rankings. All
// rankings must have the same length. The result is the element-wise
// mean; callers typically re-rank it to obtain a final ordering.
func MeanRanks(rankings [][]float64) ([]float64, error) {
	if len(rankings) == 0 {
		return nil, ErrEmptyInput
	}
	n := len(rankings[0])
	for _, r := range rankings[1:] {
		if len(r) != n {
			return nil, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(r), n)
		}
	}
	out := make([]float64, n)
	for _, r := range rankings {
		for i, v := range r {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(rankings))
	}
	return out, nil
}

// ArgsortAscending returns the item indices ordered by ascending key, so
// that keys[result[0]] is the smallest. Ties preserve original order.
func ArgsortAscending(keys []float64) []int {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	stableSortBy(idx, func(a, b int) bool { return keys[a] < keys[b] })
	return idx
}

// stableSortBy is a minimal insertion-based stable sort for index slices.
// Index slices here are small (tens of features), so insertion sort is
// both simple and fast enough.
func stableSortBy(idx []int, less func(a, b int) bool) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && less(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// MedianRanks takes the element-wise median of the per-item ranks
// across multiple rankings — a more outlier-tolerant aggregate than
// MeanRanks. All rankings must have the same length.
func MedianRanks(rankings [][]float64) ([]float64, error) {
	if len(rankings) == 0 {
		return nil, ErrEmptyInput
	}
	n := len(rankings[0])
	for _, r := range rankings[1:] {
		if len(r) != n {
			return nil, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(r), n)
		}
	}
	out := make([]float64, n)
	buf := make([]float64, len(rankings))
	for i := 0; i < n; i++ {
		for j, r := range rankings {
			buf[j] = r[i]
		}
		m, err := Quantile(buf, 0.5)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// MinRanks takes the element-wise minimum (best) rank across multiple
// rankings: a feature counts as important if any approach ranks it
// highly. All rankings must have the same length.
func MinRanks(rankings [][]float64) ([]float64, error) {
	if len(rankings) == 0 {
		return nil, ErrEmptyInput
	}
	n := len(rankings[0])
	for _, r := range rankings[1:] {
		if len(r) != n {
			return nil, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(r), n)
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		best := rankings[0][i]
		for _, r := range rankings[1:] {
			if r[i] < best {
				best = r[i]
			}
		}
		out[i] = best
	}
	return out, nil
}
