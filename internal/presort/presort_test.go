package presort

import (
	"math/rand"
	"testing"
	"time"
)

// checkSorted verifies idx holds distinct valid row indices sorted
// ascending by col with ties broken by index. idx may be a sub-range
// (a partitioned half), so it need not cover every row of col.
func checkSorted(t *testing.T, idx []int32, col []float64) {
	t.Helper()
	seen := make([]bool, len(col))
	for _, v := range idx {
		if v < 0 || int(v) >= len(col) {
			t.Fatalf("index %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate index %d", v)
		}
		seen[v] = true
	}
	for k := 1; k < len(idx); k++ {
		a, b := idx[k-1], idx[k]
		if col[a] > col[b] {
			t.Fatalf("not sorted at %d: col[%d]=%v > col[%d]=%v", k, a, col[a], b, col[b])
		}
		if col[a] == col[b] && a > b {
			t.Fatalf("tie at %d not broken by index: %d before %d", k, a, b)
		}
	}
}

func TestArgsortBasic(t *testing.T) {
	col := []float64{3, 1, 2, 1, 0}
	idx := Argsort(col)
	checkSorted(t, idx, col)
	want := []int32{4, 1, 3, 2, 0}
	for i, v := range want {
		if idx[i] != v {
			t.Fatalf("idx = %v, want %v", idx, want)
		}
	}
}

// TestArgsortWorstCases covers the quicksort killers the deleted
// hand-rolled sorts were vulnerable to: constant columns (all ties) and
// already-sorted / reverse-sorted input. Beyond correctness, the run
// must finish fast — a quadratic blowup on 200k constant values would
// take minutes, so the deadline guards the complexity regression.
func TestArgsortWorstCases(t *testing.T) {
	const n = 200_000
	cases := map[string]func(i int) float64{
		"constant":      func(i int) float64 { return 42 },
		"sorted":        func(i int) float64 { return float64(i) },
		"reverse":       func(i int) float64 { return float64(n - i) },
		"two-values":    func(i int) float64 { return float64(i % 2) },
		"organ-pipe":    func(i int) float64 { return float64(min(i, n-i)) },
		"mostly-sorted": func(i int) float64 { return float64(i - 5*(i%97)) },
	}
	for name, gen := range cases {
		t.Run(name, func(t *testing.T) {
			col := make([]float64, n)
			for i := range col {
				col[i] = gen(i)
			}
			start := time.Now()
			idx := Argsort(col)
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("argsort of %s column took %v; quadratic regression?", name, d)
			}
			checkSorted(t, idx, col)
		})
	}
}

func TestArgsortRandomWithDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(500)
		col := make([]float64, n)
		for i := range col {
			col[i] = float64(rng.Intn(20)) // force heavy ties
		}
		checkSorted(t, Argsort(col), col)
	}
}

func TestArgsortEmptyAndSingle(t *testing.T) {
	if idx := Argsort(nil); len(idx) != 0 {
		t.Fatalf("argsort(nil) = %v", idx)
	}
	if idx := Argsort([]float64{7}); len(idx) != 1 || idx[0] != 0 {
		t.Fatalf("argsort singleton = %v", idx)
	}
}

func TestAll(t *testing.T) {
	cols := [][]float64{{2, 1, 3}, {9, 8, 7}}
	orders := All(cols)
	if len(orders) != 2 {
		t.Fatalf("orders = %d", len(orders))
	}
	for f, ord := range orders {
		checkSorted(t, ord, cols[f])
	}
}

// PartitionByThreshold is the reference partition PartitionBySide is
// checked against: it stably partitions ord[lo:hi] in place so that
// rows with col[row] <= threshold come first (NaN goes right), and
// returns the size of the left half. scratch must have capacity at
// least hi-lo.
func PartitionByThreshold(ord []int32, lo, hi int, col []float64, threshold float64, scratch []int32) int {
	scratch = scratch[:0]
	w := lo
	for k := lo; k < hi; k++ {
		i := ord[k]
		if col[i] <= threshold {
			ord[w] = i
			w++
		} else {
			scratch = append(scratch, i)
		}
	}
	copy(ord[w:hi], scratch)
	return w - lo
}

func TestPartitionByThreshold(t *testing.T) {
	col := []float64{5, 1, 4, 2, 3, 0}
	ord := Argsort(col) // 5 1 3 4 2 0 (values 0 1 2 3 4 5)
	scratch := make([]int32, len(ord))
	nl := PartitionByThreshold(ord, 0, len(ord), col, 2.5, scratch)
	if nl != 3 {
		t.Fatalf("left size = %d, want 3", nl)
	}
	// Both halves must stay sorted by col (stability preserves order).
	checkSorted(t, ord[:nl], col)
	checkSorted(t, ord[nl:], col)
	for _, i := range ord[:nl] {
		if col[i] > 2.5 {
			t.Fatalf("left half contains %v", col[i])
		}
	}
	for _, i := range ord[nl:] {
		if col[i] <= 2.5 {
			t.Fatalf("right half contains %v", col[i])
		}
	}
}

// TestPartitionMaintainsSortedness is the core invariant of the
// sort-once design: partitioning feature A's order by feature B's
// threshold must leave both halves sorted by A.
func TestPartitionMaintainsSortedness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 400
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = float64(rng.Intn(10)) // ties in the sorted feature
		b[i] = rng.NormFloat64()
	}
	ordA := Argsort(a)
	scratch := make([]int32, n)
	nl := PartitionByThreshold(ordA, 0, n, b, 0, scratch)
	checkSorted(t, ordA[:nl], a)
	checkSorted(t, ordA[nl:], a)

	// Partition a sub-range of the left half again (as a deeper tree
	// node would) and re-check.
	if nl > 10 {
		nl2 := PartitionByThreshold(ordA, 2, nl, b, -0.5, scratch)
		checkSorted(t, ordA[2:2+nl2], a)
		checkSorted(t, ordA[2+nl2:nl], a)
	}
}

func TestPartitionEdges(t *testing.T) {
	col := []float64{1, 2, 3}
	scratch := make([]int32, 3)

	ord := Argsort(col)
	if nl := PartitionByThreshold(ord, 0, 3, col, 10, scratch); nl != 3 {
		t.Fatalf("all-left partition = %d", nl)
	}
	checkSorted(t, ord, col)

	ord = Argsort(col)
	if nl := PartitionByThreshold(ord, 0, 3, col, -10, scratch); nl != 0 {
		t.Fatalf("all-right partition = %d", nl)
	}
	checkSorted(t, ord, col)

	ord = Argsort(col)
	if nl := PartitionByThreshold(ord, 1, 1, col, 0, scratch); nl != 0 {
		t.Fatalf("empty-range partition = %d", nl)
	}
}

// TestPartitionBySideMatchesThreshold checks the byte-mask fast path
// against the threshold partition it replaces in the tree hot loop.
func TestPartitionBySideMatchesThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 300
	a := make([]float64, n)
	b := make([]float64, n)
	side := make([]byte, n)
	for i := 0; i < n; i++ {
		a[i] = float64(rng.Intn(8))
		b[i] = rng.NormFloat64()
		if b[i] <= 0.25 {
			side[i] = 1
		}
	}
	scratch := make([]int32, n)
	byThresh := Argsort(a)
	bySide := append([]int32(nil), byThresh...)
	nl1 := PartitionByThreshold(byThresh, 5, n-3, b, 0.25, scratch)
	nl2 := PartitionBySide(bySide, 5, n-3, side, scratch)
	if nl1 != nl2 {
		t.Fatalf("left sizes differ: %d vs %d", nl1, nl2)
	}
	for i := range byThresh {
		if byThresh[i] != bySide[i] {
			t.Fatalf("orders differ at %d: %d vs %d", i, byThresh[i], bySide[i])
		}
	}
	checkSorted(t, bySide[5:5+nl2], a)
	checkSorted(t, bySide[5+nl2:n-3], a)
}

func BenchmarkArgsort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	col := make([]float64, 10000)
	for i := range col {
		col[i] = rng.NormFloat64()
	}
	idx := make([]int32, len(col))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ArgsortInto(idx, col)
	}
}

func BenchmarkPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	col := make([]float64, 10000)
	for i := range col {
		col[i] = rng.NormFloat64()
	}
	side := make([]byte, len(col))
	for i, v := range col {
		if v <= 0 {
			side[i] = 1
		}
	}
	ord := Argsort(col)
	scratch := make([]int32, len(ord))
	work := make([]int32, len(ord))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, ord)
		PartitionBySide(work, 0, len(work), side, scratch)
	}
}
