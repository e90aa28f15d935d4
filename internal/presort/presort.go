// Package presort provides sort-once machinery for exact split search:
// per-feature argsorted row orders computed once per dataset, and the
// stable in-place partitioning that maintains them down a tree.
//
// It serves only the exact-split oracles the tests compare the binned
// growers against (tree.FitClassifier and gbdt's test-only exact loop),
// plus internal/hist's test reference binning; production binning
// needs no row order. Instead of re-sorting every candidate feature at
// every node — O(nodes x features x n log n) — an exact fit sorts each
// feature exactly once and thereafter only scans and partitions, which
// is linear per level. Row indices are int32: fleets of up to two
// billion drive-days fit, and the halved index footprint keeps more of
// the order arrays in cache during the per-node scans.
package presort

import (
	"math"
	"slices"
)

// Argsort returns the row indices of col sorted ascending by value.
// Ties are broken by row index, making the order fully deterministic
// (equivalent to a stable sort of the identity permutation).
func Argsort(col []float64) []int32 {
	idx := make([]int32, len(col))
	ArgsortInto(idx, col)
	return idx
}

// radixCutoff is the length below which a comparison sort beats the
// radix passes' fixed cost.
const radixCutoff = 256

// ArgsortInto fills idx (which must have the same length as col) with
// the ascending argsort of col, ties broken by row index.
//
// Large columns use an LSD radix sort over the order-preserving uint64
// image of each float64: stable passes make ties resolve by original
// index, the running time is linear regardless of value distribution
// (constant, presorted, and adversarial columns all cost the same),
// and no comparison function is ever called.
func ArgsortInto(idx []int32, col []float64) {
	if len(idx) != len(col) {
		panic("presort: index/column length mismatch")
	}
	for i := range idx {
		idx[i] = int32(i)
	}
	if len(col) >= radixCutoff {
		radixArgsort(idx, col)
		return
	}
	// Small columns: comparison sort with an index tie-break, which
	// makes the (unstable) pdqsort result unique and deterministic.
	// Comparing the floatKey images (not the raw floats) keeps this
	// path's total order — including NaN placement — identical to the
	// radix path's, so the cutoff never changes results.
	slices.SortFunc(idx, func(a, b int32) int {
		ka, kb := floatKey(col[a]), floatKey(col[b])
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		default:
			return int(a - b)
		}
	})
}

// floatKey maps a float64 to a uint64 whose unsigned order matches the
// float's total order: flip all bits of negatives, flip only the sign
// bit of non-negatives. Quiet NaNs map above +Inf, which is the
// invariant the missing-value-aware tree learners rely on: rows with a
// missing (NaN) value always form a contiguous tail of each presorted
// segment.
func floatKey(v float64) uint64 {
	u := math.Float64bits(v)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}

// radixArgsort sorts idx by col using 8 stable byte-wise counting
// passes over the transformed keys.
func radixArgsort(idx []int32, col []float64) {
	n := len(idx)
	keys := make([]uint64, n)
	for i, v := range col {
		keys[i] = floatKey(v)
	}
	tmpIdx := make([]int32, n)
	var count [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, i := range idx {
			count[(keys[i]>>shift)&0xff]++
		}
		if count[(keys[idx[0]]>>shift)&0xff] == n {
			continue // every key shares this byte; pass is a no-op
		}
		pos := 0
		for b := 0; b < 256; b++ {
			c := count[b]
			count[b] = pos
			pos += c
		}
		for _, i := range idx {
			b := (keys[i] >> shift) & 0xff
			tmpIdx[count[b]] = i
			count[b]++
		}
		copy(idx, tmpIdx)
	}
}

// All argsorts every column. The result is the per-feature presorted
// order a fit computes once and reuses at every node (and, for a
// forest, across every tree).
func All(cols [][]float64) [][]int32 {
	out := make([][]int32, len(cols))
	for f, col := range cols {
		out[f] = Argsort(col)
	}
	return out
}

// PartitionBySide stably partitions ord[lo:hi] in place by a per-row
// side mask: rows with side[row] == 1 come first. It returns the size
// of the left half; scratch must have length at least hi-lo.
//
// Stability is what lets a fit maintain sortedness for free: if
// ord[lo:hi] is sorted by any feature's value, both halves remain
// sorted by that feature after partitioning by any other feature. The
// split feature's sorted segment is scanned once to fill the byte mask,
// then every other feature's order partitions against the mask — one
// byte load per row instead of a random float64 load from the split
// column.
// The mask must hold exactly 0 or 1 per row: the loop is branchless
// (both destinations are written every iteration, cursors advance by
// the mask value), which sidesteps the ~50% mispredicted branch a
// conditional partition pays on every row.
func PartitionBySide(ord []int32, lo, hi int, side []byte, scratch []int32) int {
	w, r := lo, 0
	for k := lo; k < hi; k++ {
		i := ord[k]
		s := int(side[i])
		ord[w] = i // w <= k, so this never clobbers an unread slot
		scratch[r] = i
		w += s
		r += 1 - s
	}
	copy(ord[w:hi], scratch[:r])
	return w - lo
}
