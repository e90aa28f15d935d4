package presort

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

// FuzzArgsort checks the argsort invariants on arbitrary bit patterns:
// the result is a permutation, it respects the floatKey total order
// with index tie-break, and the small-column comparison path agrees
// with the radix path exactly (the cutoff must never change results).
func FuzzArgsort(f *testing.F) {
	f.Add(floatsToBytes([]float64{3, 1, 2}))
	f.Add(floatsToBytes([]float64{math.NaN(), 0, math.Inf(1), math.Inf(-1), math.NaN()}))
	f.Add(floatsToBytes([]float64{math.Copysign(0, -1), 0, -0.5, math.MaxFloat64}))
	f.Add(floatsToBytes(make([]float64, 300))) // all-constant, radix path
	f.Fuzz(func(t *testing.T, data []byte) {
		col := bytesToFloats(data)
		idx := Argsort(col)

		seen := make([]bool, len(col))
		for _, i := range idx {
			if i < 0 || int(i) >= len(col) || seen[i] {
				t.Fatalf("not a permutation: %v", idx)
			}
			seen[i] = true
		}
		for k := 1; k < len(idx); k++ {
			ka, kb := floatKey(col[idx[k-1]]), floatKey(col[idx[k]])
			if ka > kb {
				t.Fatalf("order violated at %d: %v > %v", k, col[idx[k-1]], col[idx[k]])
			}
			if ka == kb && idx[k-1] >= idx[k] {
				t.Fatalf("tie-break violated at %d: indices %d, %d", k, idx[k-1], idx[k])
			}
		}

		// Cutoff independence: force the radix path on the same column.
		radix := make([]int32, len(col))
		for i := range radix {
			radix[i] = int32(i)
		}
		if len(col) > 0 {
			radixArgsort(radix, col)
		}
		for k := range idx {
			if idx[k] != radix[k] {
				t.Fatalf("comparison and radix paths disagree at %d: %v vs %v", k, idx, radix)
			}
		}
	})
}

// FuzzPartition checks the tree learners' mask partition on a
// presorted order: with the mask built from col[i] <= threshold (NaN
// always routes right: the missing-tail invariant the tree learners
// rely on), PartitionBySide must reproduce the threshold reference
// exactly and be a stable permutation with every left row <= threshold.
func FuzzPartition(f *testing.F) {
	f.Add(floatsToBytes([]float64{0.5, 2, math.NaN(), -1, 0.5}), 0.5)
	f.Add(floatsToBytes([]float64{math.Inf(1), math.Inf(-1), 0}), 0.0)
	f.Add(floatsToBytes([]float64{1, 2, 3, 4}), math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, threshold float64) {
		col := bytesToFloats(data)
		side := make([]byte, len(col))
		for i, v := range col {
			if v <= threshold {
				side[i] = 1
			}
		}
		ord := Argsort(col)
		before := append([]int32(nil), ord...)
		ref := append([]int32(nil), ord...)
		scratch := make([]int32, len(ord))
		nLeft := PartitionBySide(ord, 0, len(ord), side, scratch)
		nRef := PartitionByThreshold(ref, 0, len(ref), col, threshold, scratch)

		if nLeft != nRef {
			t.Fatalf("left size %d, reference %d", nLeft, nRef)
		}
		for k := range ord {
			if ord[k] != ref[k] {
				t.Fatalf("order differs from reference at %d: %v vs %v", k, ord, ref)
			}
		}
		for k, i := range ord {
			inLeft := col[i] <= threshold
			if (k < nLeft) != inLeft {
				t.Fatalf("row %d (value %v) on wrong side of %v (k=%d, nLeft=%d)",
					i, col[i], threshold, k, nLeft)
			}
		}
		// Stability: each half preserves the presorted relative order,
		// so both halves must be subsequences of the original order.
		assertSubsequence(t, before, ord[:nLeft])
		assertSubsequence(t, before, ord[nLeft:])
	})
}

func assertSubsequence(t *testing.T, full, sub []int32) {
	t.Helper()
	j := 0
	for _, v := range full {
		if j < len(sub) && sub[j] == v {
			j++
		}
	}
	if j != len(sub) {
		t.Fatalf("partition broke relative order: %v not a subsequence of %v", sub, full)
	}
}
