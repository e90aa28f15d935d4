package hist

import (
	"encoding/binary"
	"math"
	"testing"
)

// bytesToFloats decodes a fuzz payload into a float64 column, keeping
// whatever bit patterns the fuzzer produces — including NaNs (quiet and
// signaling), ±Inf, and negative zero.
func bytesToFloats(data []byte) []float64 {
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out
}

func floatsToBytes(vals []float64) []byte {
	out := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// FuzzBin checks the quantile-cut builder's invariants on arbitrary bit
// patterns: thresholds strictly increase and end at the column maximum,
// every row's stored bin matches BinOf, NaNs land in the missing bin,
// finite rows land in finite bins, and bin order agrees with value
// order.
func FuzzBin(f *testing.F) {
	f.Add(floatsToBytes([]float64{3, 1, 2}), 256)
	f.Add(floatsToBytes([]float64{math.NaN(), 0, math.Inf(1), math.Inf(-1), math.NaN()}), 4)
	f.Add(floatsToBytes([]float64{math.Copysign(0, -1), 0, -0.5, math.MaxFloat64}), 2)
	f.Add(floatsToBytes(make([]float64, 300)), 16) // all-constant
	f.Add(floatsToBytes([]float64{1, math.Nextafter(1, 2), math.Nextafter(1, 0)}), 256)
	f.Fuzz(func(t *testing.T, data []byte, maxBins int) {
		col := bytesToFloats(data)
		m := Bin([][]float64{col}, maxBins, 1)

		nb := m.FiniteBins(0)
		maxFinite := math.Inf(-1)
		nFinite := 0
		for _, v := range col {
			if v == v {
				nFinite++
				if v > maxFinite {
					maxFinite = v
				}
			}
		}
		if nFinite == 0 {
			if nb != 0 {
				t.Fatalf("FiniteBins = %d for all-missing column", nb)
			}
		} else {
			if nb == 0 {
				t.Fatalf("FiniteBins = 0 with %d finite rows", nFinite)
			}
			if last := m.Threshold(0, nb-1); last != maxFinite {
				t.Fatalf("last threshold %v, want column max %v", last, maxFinite)
			}
		}
		for b := 1; b < nb; b++ {
			if !(m.Threshold(0, b-1) < m.Threshold(0, b)) {
				t.Fatalf("thresholds not strictly increasing at %d: %v >= %v",
					b, m.Threshold(0, b-1), m.Threshold(0, b))
			}
		}

		bins := m.Bins(0)
		for i, v := range col {
			got := int(bins[i])
			if want := m.BinOf(0, v); got != want {
				t.Fatalf("row %d (%v): stored bin %d, BinOf %d", i, v, got, want)
			}
			if v != v {
				if got != m.MissingBin(0) {
					t.Fatalf("NaN row %d in bin %d, want missing %d", i, got, m.MissingBin(0))
				}
				continue
			}
			if got >= nb {
				t.Fatalf("finite row %d (%v) in bin %d, finite bins %d", i, v, got, nb)
			}
			// Threshold semantics: v <= thr[b] exactly when bin(v) <= b.
			for b := 0; b < nb; b++ {
				if (v <= m.Threshold(0, b)) != (got <= b) {
					t.Fatalf("row %d (%v, bin %d): threshold %d (%v) routing disagrees",
						i, v, got, b, m.Threshold(0, b))
				}
			}
		}

		// Bin order must agree with value order on finite rows.
		for i, u := range col {
			if u != u {
				continue
			}
			for j, v := range col {
				if v != v {
					continue
				}
				if u < v && bins[i] > bins[j] {
					t.Fatalf("order violated: %v (bin %d) < %v (bin %d)", u, bins[i], v, bins[j])
				}
			}
		}
	})
}

// FuzzBinMatchesReference pins Bin to binReference, the argsort binning
// it replaced: every column's thresholds must be bit-equal (so -0 and
// +0 differ) and every row's bin equal, at any worker count. Each
// payload yields two columns: its raw float64 bit patterns, and small
// integers (with some NaNs) drawn from each value's low byte, which
// gives the quantile path repeated values to group.
func FuzzBinMatchesReference(f *testing.F) {
	nan := math.NaN()
	negNaN := math.Float64frombits(math.Float64bits(nan) | 1<<63)
	payloadNaN := math.Float64frombits(0xfff0_0000_dead_beef) // sign bit set
	negZero := math.Copysign(0, -1)
	distinct := func(n int) []float64 {
		out := make([]float64, 2*n)
		for i := range out {
			out[i] = float64(i%n) * 0.5
		}
		return out
	}
	f.Add(floatsToBytes([]float64{nan, 1, negNaN, 2, payloadNaN, 1, nan}), 256, uint8(1))
	f.Add(floatsToBytes([]float64{math.Inf(1), 3, math.Inf(-1), math.Inf(1), -3, nan}), 256, uint8(2))
	f.Add(floatsToBytes([]float64{0, negZero, 1, 0, -1, negZero}), 256, uint8(1))
	f.Add(floatsToBytes([]float64{-2, 0, -1, negZero, 0}), 256, uint8(1)) // zero group is the max
	f.Add(floatsToBytes([]float64{0, 0, negZero}), 256, uint8(1))
	f.Add(floatsToBytes([]float64{negZero, 0, -1, 1, 2, 3}), 3, uint8(1))
	// Quantile path with a -0 threshold below the last: the cut between
	// the zero group and +Inf falls back to -0, and +0 rows must bin
	// with it.
	f.Add(floatsToBytes([]float64{-2, 0, -1, negZero, math.Inf(1), math.Inf(1)}), 3, uint8(1))
	f.Add(floatsToBytes([]float64{0, 0, 5, negZero}), 2, uint8(1))
	f.Add(floatsToBytes([]float64{1, math.Nextafter(1, 2), math.Nextafter(1, 0), 1, math.Nextafter(1, 2)}), 256, uint8(1))
	f.Add(floatsToBytes([]float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, negZero, -math.SmallestNonzeroFloat64}), 4, uint8(1))
	f.Add(floatsToBytes([]float64{7, 7, 7, 7, 7, 7}), 256, uint8(3))
	f.Add(floatsToBytes([]float64{nan, negNaN, nan, payloadNaN}), 256, uint8(1))
	f.Add(floatsToBytes(distinct(255)), 256, uint8(2))
	f.Add(floatsToBytes(distinct(256)), 256, uint8(2))
	f.Add(floatsToBytes(distinct(40)), 2, uint8(1))
	f.Add(floatsToBytes(distinct(300)), 17, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, maxBins int, workers uint8) {
		raw := bytesToFloats(data)
		small := make([]float64, len(raw))
		for i := range small {
			if b := int8(data[8*i]); b == math.MinInt8 {
				small[i] = math.NaN()
			} else {
				small[i] = float64(b)
			}
		}
		cols := [][]float64{raw, small}
		if d := diffMatrix(Bin(cols, maxBins, int(workers%4)), binReference(cols, maxBins)); d != "" {
			t.Fatalf("maxBins %d: %s", maxBins, d)
		}
	})
}
