// Package stats provides the hand-rolled statistical primitives that the
// rest of the repository builds on: descriptive statistics, correlation
// coefficients, rank transforms, moving averages, and rank-distance
// measures.
//
// Every function is deterministic and allocation-conscious; none of them
// depend on anything outside the standard library. Functions that cannot
// produce a meaningful answer for degenerate input (empty slices, zero
// variance) return an error or a documented sentinel value rather than
// NaN, so callers can make policy decisions explicitly.
package stats

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Errors returned by the statistical primitives.
var (
	// ErrEmptyInput indicates a computation over zero samples.
	ErrEmptyInput = errors.New("stats: empty input")
	// ErrLengthMismatch indicates paired inputs of different lengths.
	ErrLengthMismatch = errors.New("stats: length mismatch")
	// ErrZeroVariance indicates an input with no dispersion where
	// dispersion is required (e.g. correlation denominators).
	ErrZeroVariance = errors.New("stats: zero variance")
	// ErrInvalidQuantile indicates a quantile outside [0, 1].
	ErrInvalidQuantile = errors.New("stats: quantile outside [0, 1]")
	// ErrInvalidWindow indicates a non-positive moving-average window.
	ErrInvalidWindow = errors.New("stats: window must be positive")
	// ErrInvalidRange indicates a position range outside the input.
	ErrInvalidRange = errors.New("stats: invalid position range")
)

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptyInput
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Welford accumulates a running mean and variance using Welford's
// numerically stable online algorithm. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of samples accumulated.
func (w *Welford) Count() int { return w.n }

// Mean returns the running mean, or 0 if no samples were added.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (dividing by n), or 0 if
// fewer than one sample was added.
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// MeanVariance returns the mean and population variance of xs in one pass.
func MeanVariance(xs []float64) (mean, variance float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmptyInput
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Mean(), w.Variance(), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	_, v, err := MeanVariance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// MinMax returns the minimum and maximum of xs.
func MinMax(xs []float64) (minV, maxV float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmptyInput
	}
	minV, maxV = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < minV {
			minV = x
		}
		if x > maxV {
			maxV = x
		}
	}
	return minV, maxV, nil
}

// Quantile returns the q-th quantile of xs (q in [0, 1]) using linear
// interpolation between closest ranks. The input need not be sorted.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptyInput
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("%w: %v", ErrInvalidQuantile, q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Ranks returns 1-based fractional ranks of xs, assigning tied values the
// average of the ranks they span (the convention Spearman correlation
// requires). The smallest value receives rank 1. NaN values sort after
// every finite value (and +Inf) and tie with each other, so they always
// occupy the worst ranks instead of producing an input-order-dependent
// interleaving.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	// NaNs take the tail positions in input order; the rest sort
	// unstably, since a tie group's average rank does not depend on
	// the order inside it.
	idx := make([]int32, 0, n)
	for i, x := range xs {
		if x == x {
			idx = append(idx, int32(i))
		}
	}
	m := len(idx)
	for i, x := range xs {
		if x != x {
			idx = append(idx, int32(i))
		}
	}
	slices.SortFunc(idx[:m], func(a, b int32) int {
		switch xa, xb := xs[a], xs[b]; {
		case xa < xb:
			return -1
		case xa > xb:
			return 1
		}
		return 0
	})

	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		if i >= m {
			j = n - 1 // the NaNs are one tie group
		}
		for j+1 < m && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group spanning positions i..j.
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Pearson returns the Pearson product-moment correlation between xs and
// ys. It returns ErrZeroVariance when either input is constant.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(xs), len(ys))
	}
	if len(xs) == 0 {
		return 0, ErrEmptyInput
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, ErrZeroVariance
	}
	r := sxy / math.Sqrt(sxx*syy)
	if r != r {
		// Non-finite input poisoned the accumulators; a correlation is
		// undefined, which callers treat exactly like zero dispersion.
		return 0, ErrZeroVariance
	}
	return r, nil
}

// Spearman returns the Spearman rank correlation between xs and ys: the
// Pearson correlation of their fractional ranks. Ties are handled by
// average ranking.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(xs), len(ys))
	}
	if len(xs) == 0 {
		return 0, ErrEmptyInput
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// RollingStats describes the summary statistics of one rolling window.
type RollingStats struct {
	Max   float64
	Min   float64
	Mean  float64
	Std   float64
	Range float64 // Max - Min
	WMA   float64 // weighted moving average, recency-weighted
}

// Rolling computes RollingStats for every position of xs over a trailing
// window of the given size. Partial windows at the start use the samples
// available so far, so the result has the same length as the input.
func Rolling(xs []float64, window int) ([]RollingStats, error) {
	if window <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrInvalidWindow, window)
	}
	if len(xs) == 0 {
		return []RollingStats{}, nil
	}
	return RollingRange(xs, window, 0, len(xs)-1)
}

// RollingRange computes RollingStats only for positions from through to
// (inclusive) of xs. The values are identical to
// Rolling(xs, window)[from : to+1] — each position's trailing window
// still reaches back before `from` into the full series — but only the
// requested positions are computed, which is what lets a scoring pass
// over a short day range skip re-deriving statistics for the entire
// series history.
//
// Non-finite samples (NaN, ±Inf) are skipped: each window's statistics
// summarize only its finite samples, with weights keyed to the sample's
// position in the window. A window with no finite samples yields
// all-NaN stats, which downstream consumers treat as missing.
func RollingRange(xs []float64, window, from, to int) ([]RollingStats, error) {
	if window <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrInvalidWindow, window)
	}
	if from < 0 || to >= len(xs) || from > to {
		return nil, fmt.Errorf("%w: [%d, %d] in input of length %d", ErrInvalidRange, from, to, len(xs))
	}
	out := make([]RollingStats, to-from+1)
	rollingRangeInto(out, xs, window, from, to)
	return out, nil
}

// RollingRangeInto is RollingRange writing into a caller-provided
// buffer, which must have length to-from+1; it allocates nothing.
// Repeated extraction passes (one per feature per drive) reuse one
// buffer instead of allocating a fresh result slice each call.
func RollingRangeInto(out []RollingStats, xs []float64, window, from, to int) error {
	if window <= 0 {
		return fmt.Errorf("%w: %d", ErrInvalidWindow, window)
	}
	if from < 0 || to >= len(xs) || from > to {
		return fmt.Errorf("%w: [%d, %d] in input of length %d", ErrInvalidRange, from, to, len(xs))
	}
	if len(out) != to-from+1 {
		return fmt.Errorf("%w: buffer length %d for range [%d, %d]", ErrInvalidRange, len(out), from, to)
	}
	rollingRangeInto(out, xs, window, from, to)
	return nil
}

func rollingRangeInto(out []RollingStats, xs []float64, window, from, to int) {
	for i := from; i <= to; i++ {
		lo := i - window + 1
		if lo < 0 {
			lo = 0
		}
		var w Welford
		minV, maxV := math.Inf(1), math.Inf(-1)
		var num, den float64
		for j := lo; j <= i; j++ {
			x := xs[j]
			if x-x != 0 { // non-finite
				continue
			}
			w.Add(x)
			if x < minV {
				minV = x
			}
			if x > maxV {
				maxV = x
			}
			wt := float64(j - lo + 1)
			num += x * wt
			den += wt
		}
		if w.Count() == 0 {
			nan := math.NaN()
			out[i-from] = RollingStats{Max: nan, Min: nan, Mean: nan, Std: nan, Range: nan, WMA: nan}
			continue
		}
		out[i-from] = RollingStats{
			Max:   maxV,
			Min:   minV,
			Mean:  w.Mean(),
			Std:   w.StdDev(),
			Range: maxV - minV,
			WMA:   num / den,
		}
	}
}
