package hist

import (
	"math"
	"testing"
)

func TestBinConstantColumn(t *testing.T) {
	col := []float64{4, 4, 4, 4, 4}
	m := Bin([][]float64{col}, 0)
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
	m := Bin([][]float64{col}, 0)
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
	m := Bin([][]float64{col}, 0)
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
	m := Bin([][]float64{col}, 0)
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
	m := Bin([][]float64{col}, 16)
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
	m := Bin([][]float64{col}, 0)
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
		m := Bin([][]float64{col}, maxBins)
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
