// Package hist implements histogram binning for the tree learners: each
// feature column is quantized once per dataset into at most 256 bins
// (including a dedicated missing bin), after which split search scans
// per-node bin histograms instead of presorted rows.
//
// Cut points are quantile-based: when a column has fewer distinct finite
// values than bins, every distinct value gets its own bin (SMART
// counters are low-cardinality integers, so this is the common case and
// makes binned split search exactly as expressive as the presorted exact
// scan); otherwise cuts are placed at evenly spaced ranks of the sorted
// finite values. Missing (NaN) values always map to a dedicated bin one
// past the finite bins, so the learners' sparsity-aware default-direction
// logic carries over unchanged.
//
// Thresholds are chosen so that routing by bin index and routing raw
// values through the fitted tree agree: the threshold after bin b is a
// midpoint strictly below the smallest value of bin b+1 (with the same
// adjacent-float fallback as exact search), and the last threshold is
// the column's largest finite value (the finite/missing boundary cut).
package hist

import (
	"math"
	"sort"

	"repro/internal/presort"
)

// SplitMethod is ignored: histogram-binned split search is the only
// tree grower. The type is kept only because perfbench, which changes
// only together with the benchmark definition, still names it through
// engine.Config.SplitMethod and selection.Resolve.
type SplitMethod int

// DefaultMaxBins is the per-feature bin budget (including the missing
// bin) used when a config leaves MaxBins at zero.
const DefaultMaxBins = 256

// Matrix is a column-major dataset quantized to bin indices. Feature f
// has FiniteBins(f) finite bins numbered 0..FiniteBins(f)-1 in
// increasing value order, plus the missing bin MissingBin(f) holding
// NaN rows. It is immutable after Bin and safe for concurrent readers.
type Matrix struct {
	bins [][]uint8
	thr  [][]float64 // thr[f][b]: rows with value <= thr[f][b] land in bins 0..b
	rows int
}

// Bin quantizes every column into at most maxBins bins (maxBins-1
// finite plus the missing bin; values outside [2, 256] mean
// DefaultMaxBins). Columns must share one length.
func Bin(cols [][]float64, maxBins int) *Matrix {
	if maxBins < 2 || maxBins > 256 {
		maxBins = DefaultMaxBins
	}
	m := &Matrix{
		bins: make([][]uint8, len(cols)),
		thr:  make([][]float64, len(cols)),
	}
	if len(cols) > 0 {
		m.rows = len(cols[0])
	}
	ord := make([]int32, m.rows)
	for f, col := range cols {
		presort.ArgsortInto(ord, col)
		m.thr[f] = buildCuts(col, ord, maxBins-1)
		m.bins[f] = quantizeSorted(col, ord, m.thr[f])
	}
	return m
}

// NumFeatures returns the feature count.
func (m *Matrix) NumFeatures() int { return len(m.bins) }

// NumRows returns the row count.
func (m *Matrix) NumRows() int { return m.rows }

// FiniteBins returns feature f's finite bin count. Zero means the
// column had no finite values and can never be split on.
func (m *Matrix) FiniteBins(f int) int { return len(m.thr[f]) }

// MissingBin returns the bin index holding feature f's missing rows.
func (m *Matrix) MissingBin(f int) int { return len(m.thr[f]) }

// Bins returns feature f's per-row bin indices. Read-only.
func (m *Matrix) Bins(f int) []uint8 { return m.bins[f] }

// Threshold returns the split value after finite bin b of feature f:
// rows with value <= Threshold(f, b) occupy bins 0..b.
func (m *Matrix) Threshold(f, b int) float64 { return m.thr[f][b] }

// BinOf quantizes one value of feature f, for tests and diagnostics.
func (m *Matrix) BinOf(f int, v float64) int { return binOf(m.thr[f], v) }

// buildCuts derives the per-bin upper thresholds of one column from its
// presorted order. The result has one entry per finite bin; entry b is
// the largest value routed into bins 0..b, strictly below the smallest
// value of bin b+1. The final entry is the column's largest finite
// value.
func buildCuts(col []float64, ord []int32, maxFinite int) []float64 {
	// Group the sorted finite values into distinct values with counts.
	// NaNs are skipped wherever they sort: quiet NaNs form the tail,
	// but sign-bit-set NaN payloads order before every finite value.
	vals := make([]float64, 0, min(len(ord), 2*maxFinite))
	cnts := make([]int, 0, cap(vals))
	fin := 0
	for _, i := range ord {
		v := col[i]
		if v != v {
			continue
		}
		fin++
		if len(vals) > 0 && v == vals[len(vals)-1] {
			cnts[len(cnts)-1]++
		} else {
			vals = append(vals, v)
			cnts = append(cnts, 1)
		}
	}
	if fin == 0 {
		return nil
	}

	d := len(vals)
	thr := make([]float64, 0, min(d, maxFinite))
	if d <= maxFinite {
		// One bin per distinct value: binned search is exactly as
		// expressive as the exact presorted scan on this column.
		for g := 0; g < d-1; g++ {
			thr = append(thr, cutBetween(vals[g], vals[g+1]))
		}
		return append(thr, vals[d-1])
	}

	// Greedy quantile cuts: close a bin whenever the cumulative row
	// count reaches the next evenly spaced rank. Every bin is nonempty
	// and value groups are never split across bins.
	cum := 0
	for g := 0; g < d; g++ {
		cum += cnts[g]
		if g == d-1 {
			thr = append(thr, vals[g])
			break
		}
		if float64(cum) >= float64(len(thr)+1)*float64(fin)/float64(maxFinite) {
			thr = append(thr, cutBetween(vals[g], vals[g+1]))
		}
	}
	return thr
}

// cutBetween returns a threshold separating adjacent distinct values
// a < b: their midpoint, or a itself when the midpoint does not land
// strictly below b (adjacent floats, ±Inf endpoints whose midpoint
// overflows or degenerates). Mirrors the fallback of the exact
// reference (tree.FitClassifier) so both route unseen values
// identically.
func cutBetween(a, b float64) float64 {
	mid := a/2 + b/2
	if !(mid < b) || math.IsNaN(mid) {
		return a
	}
	return mid
}

// quantizeSorted maps every row to its bin by walking the presorted
// order with a monotone bin cursor — O(rows + bins) rather than a
// binary search per row. Produces exactly binOf(thr, col[i]) for every
// row (NaNs, forming the sorted tail, land in the missing bin).
func quantizeSorted(col []float64, ord []int32, thr []float64) []uint8 {
	bins := make([]uint8, len(col))
	miss := uint8(len(thr))
	b := 0
	last := len(thr) - 1
	for _, i := range ord {
		v := col[i]
		if v != v {
			bins[i] = miss
			continue
		}
		for b < last && thr[b] < v {
			b++
		}
		bins[i] = uint8(b)
	}
	return bins
}

// binOf returns the bin of one value: the first bin whose threshold is
// >= v, the last finite bin for values above every threshold (unseen
// data beyond the training maximum), or the missing bin for NaN.
func binOf(thr []float64, v float64) int {
	if v != v || len(thr) == 0 {
		return len(thr)
	}
	b := sort.SearchFloat64s(thr, v)
	if b == len(thr) {
		b = len(thr) - 1
	}
	return b
}
