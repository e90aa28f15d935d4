package hist

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/presort"
)

func TestBinConstantColumn(t *testing.T) {
	col := []float64{4, 4, 4, 4, 4}
	m := Bin([][]float64{col}, 0, 0)
	if got := m.FiniteBins(0); got != 1 {
		t.Fatalf("FiniteBins = %d, want 1", got)
	}
	if thr := m.Threshold(0, 0); thr != 4 {
		t.Errorf("Threshold = %v, want 4", thr)
	}
	for i := range col {
		if b := m.Bins(0)[i]; b != 0 {
			t.Errorf("row %d in bin %d, want 0", i, b)
		}
	}
}

func TestBinAllMissing(t *testing.T) {
	nan := math.NaN()
	col := []float64{nan, nan, nan}
	m := Bin([][]float64{col}, 0, 0)
	if got := m.FiniteBins(0); got != 0 {
		t.Fatalf("FiniteBins = %d, want 0 for all-missing column", got)
	}
	for i := range col {
		if b := int(m.Bins(0)[i]); b != m.MissingBin(0) {
			t.Errorf("row %d in bin %d, want missing bin %d", i, b, m.MissingBin(0))
		}
	}
}

func TestBinFewerDistinctThanBins(t *testing.T) {
	// 6 distinct values, plenty of bin budget: one bin per distinct.
	col := []float64{0, 1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 0, math.NaN()}
	m := Bin([][]float64{col}, 0, 0)
	if got := m.FiniteBins(0); got != 6 {
		t.Fatalf("FiniteBins = %d, want 6", got)
	}
	for i, v := range col {
		want := int(v)
		if v != v {
			want = m.MissingBin(0)
		}
		if got := int(m.Bins(0)[i]); got != want {
			t.Errorf("value %v in bin %d, want %d", v, got, want)
		}
	}
	// The last threshold is the maximum finite value.
	if thr := m.Threshold(0, 5); thr != 5 {
		t.Errorf("last threshold = %v, want 5", thr)
	}
}

func TestBinInfiniteValues(t *testing.T) {
	col := []float64{math.Inf(-1), -1, 0, 1, math.Inf(1), math.NaN()}
	m := Bin([][]float64{col}, 0, 0)
	if got := m.FiniteBins(0); got != 5 {
		t.Fatalf("FiniteBins = %d, want 5", got)
	}
	checkMonotoneThresholds(t, m, 0)
	checkQuantization(t, m, 0, col)
	// +Inf must land strictly above every finite value's bin.
	if bInf, b1 := m.BinOf(0, math.Inf(1)), m.BinOf(0, 1.0); bInf <= b1 {
		t.Errorf("BinOf(+Inf) = %d, not above BinOf(1) = %d", bInf, b1)
	}
	if b := m.BinOf(0, math.Inf(-1)); b != 0 {
		t.Errorf("BinOf(-Inf) = %d, want 0", b)
	}
}

func TestBinQuantileCuts(t *testing.T) {
	// More distinct values than bins: greedy quantile cuts.
	n := 1000
	col := make([]float64, n)
	for i := range col {
		col[i] = float64(i) * 0.25
	}
	m := Bin([][]float64{col}, 16, 0)
	if got := m.FiniteBins(0); got != 15 {
		t.Fatalf("FiniteBins = %d, want 15 (maxBins-1)", got)
	}
	checkMonotoneThresholds(t, m, 0)
	checkQuantization(t, m, 0, col)
	// Roughly even bin occupancy (greedy rank cuts): no bin may be
	// empty, and none should hold more than twice the even share.
	counts := make([]int, m.FiniteBins(0))
	for _, b := range m.Bins(0) {
		counts[b]++
	}
	even := n / m.FiniteBins(0)
	for b, c := range counts {
		if c == 0 {
			t.Errorf("bin %d empty", b)
		}
		if c > 2*even {
			t.Errorf("bin %d holds %d rows, even share is %d", b, c, even)
		}
	}
}

func TestBinClampsUnseenValues(t *testing.T) {
	col := []float64{1, 2, 3}
	m := Bin([][]float64{col}, 0, 0)
	if b := m.BinOf(0, 99); b != m.FiniteBins(0)-1 {
		t.Errorf("BinOf(above max) = %d, want last finite bin %d", b, m.FiniteBins(0)-1)
	}
	if b := m.BinOf(0, -99); b != 0 {
		t.Errorf("BinOf(below min) = %d, want 0", b)
	}
}

func TestBinMaxBinsClamped(t *testing.T) {
	col := []float64{1, 2, 3, 4}
	for _, maxBins := range []int{-1, 0, 1, 257} {
		m := Bin([][]float64{col}, maxBins, 0)
		if got := m.FiniteBins(0); got != 4 {
			t.Errorf("maxBins %d: FiniteBins = %d, want 4 (DefaultMaxBins in effect)", maxBins, got)
		}
	}
}

// checkMonotoneThresholds asserts feature f's thresholds strictly
// increase (the invariant that makes bin routing and value routing
// agree).
func checkMonotoneThresholds(t *testing.T, m *Matrix, f int) {
	t.Helper()
	for b := 1; b < m.FiniteBins(f); b++ {
		if !(m.Threshold(f, b-1) < m.Threshold(f, b)) {
			t.Fatalf("thresholds not strictly increasing at %d: %v >= %v",
				b, m.Threshold(f, b-1), m.Threshold(f, b))
		}
	}
}

// checkQuantization asserts the stored bins match BinOf and the
// threshold semantics: value <= Threshold(f, b) exactly when the
// value's bin is <= b.
func checkQuantization(t *testing.T, m *Matrix, f int, col []float64) {
	t.Helper()
	for i, v := range col {
		got := int(m.Bins(f)[i])
		if want := m.BinOf(f, v); got != want {
			t.Fatalf("row %d (value %v): stored bin %d, BinOf %d", i, v, got, want)
		}
		if v != v {
			if got != m.MissingBin(f) {
				t.Fatalf("NaN row %d in bin %d, want missing bin %d", i, got, m.MissingBin(f))
			}
			continue
		}
		for b := 0; b < m.FiniteBins(f); b++ {
			if (v <= m.Threshold(f, b)) != (got <= b) {
				t.Fatalf("row %d (value %v, bin %d): threshold %d (%v) routing disagrees",
					i, v, got, b, m.Threshold(f, b))
			}
		}
	}
}

// binReference is the argsort binning Bin replaced, kept verbatim as the
// contract Bin is pinned to: every column is argsorted, cuts are placed
// by walking the sorted order, and rows are binned by a monotone cursor
// over it. Bin must return bit-equal thresholds and equal bins.
func binReference(cols [][]float64, maxBins int) *Matrix {
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

// diffMatrix describes the first difference between two matrices —
// thresholds compared bit for bit, so -0 differs from +0 — or returns
// "" when they are identical.
func diffMatrix(got, want *Matrix) string {
	if got.NumFeatures() != want.NumFeatures() || got.NumRows() != want.NumRows() {
		return fmt.Sprintf("shape %dx%d, want %dx%d",
			got.NumFeatures(), got.NumRows(), want.NumFeatures(), want.NumRows())
	}
	for f := 0; f < want.NumFeatures(); f++ {
		if got.FiniteBins(f) != want.FiniteBins(f) {
			return fmt.Sprintf("feature %d: %d finite bins, want %d (thresholds %v, want %v)",
				f, got.FiniteBins(f), want.FiniteBins(f), got.thr[f], want.thr[f])
		}
		for b := 0; b < want.FiniteBins(f); b++ {
			if g, w := got.Threshold(f, b), want.Threshold(f, b); math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Sprintf("feature %d threshold %d: %v (%#x), want %v (%#x)",
					f, b, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
		gb, wb := got.Bins(f), want.Bins(f)
		for i := range wb {
			if gb[i] != wb[i] {
				return fmt.Sprintf("feature %d row %d: bin %d, want %d", f, i, gb[i], wb[i])
			}
		}
	}
	return ""
}

// mixColumns builds a rows x 104 matrix with the column mix of the
// controller's training frames: 56 small-span integer counters, 27
// further low-cardinality (non-integer) columns and 21 continuous
// columns, each with about 1% missing values.
func mixColumns(rows int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]float64, 104)
	for f := range cols {
		col := make([]float64, rows)
		for i := range col {
			switch {
			case rng.Intn(100) == 0:
				col[i] = math.NaN()
			case f < 56: // counters: mostly zero, up to 4f+1 distinct values
				if rng.Intn(4) == 0 {
					col[i] = float64(rng.Intn(4*f + 1))
				}
			case f < 83: // window means of counters: at most 200 distinct
				col[i] = float64(rng.Intn(200)) / 7
			default:
				col[i] = rng.NormFloat64() * float64(f)
			}
		}
		cols[f] = col
	}
	return cols
}

func TestBinMatchesReferenceMix(t *testing.T) {
	cols := mixColumns(5000, 1)
	for _, maxBins := range []int{0, 2, 16, 200} {
		if d := diffMatrix(Bin(cols, maxBins, 0), binReference(cols, maxBins)); d != "" {
			t.Fatalf("maxBins %d: %s", maxBins, d)
		}
	}
}

func TestBinWorkersInvariance(t *testing.T) {
	cols := mixColumns(2000, 2)
	want := Bin(cols, 0, 1)
	for _, workers := range []int{2, 3, len(cols) + 5} {
		if d := diffMatrix(Bin(cols, 0, workers), want); d != "" {
			t.Fatalf("workers %d vs 1: %s", workers, d)
		}
	}
}

func TestBinRaggedColumnsPanic(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "hist: column 1 has 2 rows, column 0 has 3") {
			t.Fatalf("panic %q, want a ragged-column message", msg)
		}
	}()
	Bin([][]float64{{1, 2, 3}, {1, 2}}, 0, 0)
}

// binSink keeps BenchmarkBin's result live.
var binSink *Matrix

// BenchmarkBin bins a training-frame-sized matrix (33,126 rows, the
// controller's column mix). Run with -cpu 1,2 to see the column
// parallelism.
func BenchmarkBin(b *testing.B) {
	cols := mixColumns(33126, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binSink = Bin(cols, 0, 0)
	}
}
