package tree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// FitClassifier is the exact reference FitClassifierBinned is tested
// against: it grows a classification tree on column-major data
// (cols[f][i] is feature f of row i) with exact split search. idx
// selects the training rows (pass nil to use every row); the same row
// may appear multiple times (bootstrap replicates), which the fit
// counts as an integer per-row weight.
//
// Each feature's row order is argsorted once and maintained down the
// tree by stable in-place partitioning, and every node scans its
// sorted segment for the exact best midpoint.
func FitClassifier(cols [][]float64, y []int, idx []int, cfg Config) (*Classifier, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: no feature columns", ErrNoData)
	}
	n := len(y)
	for f, c := range cols {
		if len(c) != n {
			return nil, fmt.Errorf("%w: column %d has %d rows, labels have %d", ErrShapeMismatch, f, len(c), n)
		}
	}
	if idx != nil && len(idx) == 0 {
		return nil, ErrNoData
	}
	weights := make([]int, n)
	if idx == nil {
		for i := range weights {
			weights[i] = 1
		}
	} else {
		for _, i := range idx {
			weights[i]++
		}
	}

	// Filter the presorted orders down to in-bag rows (weight > 0),
	// preserving sortedness. Weighted totals replace duplicated indices.
	wTotal, wPos := 0, 0
	for i, wi := range weights {
		if wi > 0 {
			wTotal += wi
			wPos += wi * y[i]
		}
	}
	if wTotal == 0 {
		return nil, ErrNoData
	}
	// A byte in-bag mask keeps the filter loop's random accesses inside
	// L1 instead of striding the full weight slice per feature, and the
	// filter itself is branchless (cursor advances by the mask value).
	side := make([]byte, n)
	wy := make([]int32, n)
	for i, wi := range weights {
		if wi > 0 {
			side[i] = 1
		}
		// Weight and label packed into one int32 so the split scan's
		// random per-row access touches a single L1-resident array.
		wy[i] = int32(wi<<1) | int32(y[i])
	}
	ord := make([][]int32, len(cols))
	rows := 0
	for f, col := range cols {
		full := argsort(col)
		w := 0
		for _, i := range full {
			full[w] = i
			w += int(side[i])
		}
		ord[f] = full[:w]
		rows = w
	}

	t := &Classifier{
		nFeatures:  len(cols),
		importance: make([]float64, len(cols)),
	}
	b := &builder{
		cols: cols,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		t:    t,
		feat: make([]int, len(cols)),
		ord:  ord,
		buf:  make([]int32, n),
		side: side,
		wy:   wy,
	}
	for i := range b.feat {
		b.feat[i] = i
	}
	b.grow(0, rows, wTotal, wPos, 0)
	return t, nil
}

// builder carries the shared state of one tree induction.
type builder struct {
	cols [][]float64
	cfg  Config
	rng  *rand.Rand
	t    *Classifier
	feat []int     // feature index pool for subsampling
	ord  [][]int32 // per-feature working orders, segment-aligned
	buf  []int32   // scratch for partitioning
	side []byte    // per-row left/right mask of the current split
	wy   []int32   // per-row packed weight<<1 | label
}

// grow recursively grows the subtree over the row segment [lo, hi) of
// every working order and returns its node index. wTotal and wPos are
// the segment's total and positive sample weights.
func (b *builder) grow(lo, hi, wTotal, wPos, depth int) int {
	nodeIdx := len(b.t.nodes)
	b.t.nodes = append(b.t.nodes, node{
		feature: -1,
		prob:    float64(wPos) / float64(wTotal),
		samples: wTotal,
	})
	if depth > b.t.depth {
		b.t.depth = depth
	}

	if b.isLeaf(wTotal, wPos, depth) {
		return nodeIdx
	}

	feature, threshold, gain, wLeft, wPosLeft, defaultLeft := b.bestSplit(lo, hi, wTotal, wPos)
	if feature < 0 {
		return nodeIdx
	}

	// Maintain every feature's order across the split: stable
	// partitioning keeps both halves sorted, so descendants never sort.
	// The split feature's own segment is sorted by the split column, so
	// its left half is exactly the prefix of rows <= threshold — found
	// by binary search, no data movement. That prefix fills a byte side
	// mask, and every other feature partitions against the mask (one L1
	// byte load per row instead of a random float64 column load).
	//
	// Rows whose split-feature value is missing (NaN) occupy a
	// contiguous tail of the segment (floatKey sorts NaN above +Inf);
	// they follow the node's learned default direction, so the binary
	// search runs over the finite prefix only and the tail's side mask
	// is set wholesale. When the default is right, the split feature's
	// left half is still exactly its prefix and its own partition can be
	// skipped as in the all-finite case.
	//
	// When both children are guaranteed leaves (pure, under the split
	// minimum, or at the depth limit) no descendant ever reads the
	// orders, so the partition is skipped outright — for depth-capped
	// forests this eliminates the entire bottom level's data movement.
	wRight, wPosRight := wTotal-wLeft, wPos-wPosLeft
	col := b.cols[feature]
	fo := b.ord[feature]
	missRows := 0
	for hi-missRows > lo {
		v := col[fo[hi-missRows-1]]
		if v == v {
			break
		}
		missRows++
	}
	fhi := hi - missRows
	nlRows := sort.Search(fhi-lo, func(k int) bool { return col[fo[lo+k]] > threshold })
	if defaultLeft {
		nlRows += missRows
	}
	if !(b.isLeaf(wLeft, wPosLeft, depth+1) && b.isLeaf(wRight, wPosRight, depth+1)) {
		nlFinite := nlRows
		if defaultLeft {
			nlFinite -= missRows
		}
		for k := lo; k < lo+nlFinite; k++ {
			b.side[fo[k]] = 1
		}
		for k := lo + nlFinite; k < fhi; k++ {
			b.side[fo[k]] = 0
		}
		if missRows > 0 {
			var sv byte
			if defaultLeft {
				sv = 1
			}
			for k := fhi; k < hi; k++ {
				b.side[fo[k]] = sv
			}
		}
		for f := range b.ord {
			if f == feature && !(defaultLeft && missRows > 0) {
				continue // the left half is already this order's prefix
			}
			partitionBySide(b.ord[f], lo, hi, b.side, b.buf)
		}
	}

	b.t.importance[feature] += gain * float64(wTotal)

	l := b.grow(lo, lo+nlRows, wLeft, wPosLeft, depth+1)
	r := b.grow(lo+nlRows, hi, wRight, wPosRight, depth+1)
	b.t.nodes[nodeIdx].feature = feature
	b.t.nodes[nodeIdx].threshold = threshold
	b.t.nodes[nodeIdx].left = l
	b.t.nodes[nodeIdx].right = r
	b.t.nodes[nodeIdx].defaultLeft = defaultLeft
	return nodeIdx
}

// isLeaf reports whether a segment with the given weighted totals
// terminates immediately: pure, under the split minimum, or at the
// depth limit. grow's early return and the partition-skip for
// guaranteed-leaf children must agree on this exact predicate.
func (b *builder) isLeaf(wTotal, wPos, depth int) bool {
	return leafStop(b.cfg, wTotal, wPos, depth)
}

// bestSplit searches the (possibly subsampled) features for the split
// that maximizes Gini-impurity decrease, scanning each candidate's
// presorted segment once. It returns feature -1 when no split improves
// impurity, otherwise the split plus the left half's weighted totals
// and the default direction for missing values.
//
// Features with missing (NaN) values get XGBoost-style sparsity-aware
// routing: the missing rows sit in a contiguous tail of the presorted
// segment, and every candidate cut over the finite prefix is evaluated
// twice — missing routed left and missing routed right — keeping
// whichever direction yields the larger impurity decrease. A feature
// with no finite values in the segment is never split on.
func (b *builder) bestSplit(lo, hi, wTotal, wPos int) (feature int, threshold, gain float64, wLeft, wPosLeft int, defaultLeft bool) {
	parentImpurity := gini(wPos, wTotal)
	if parentImpurity == 0 {
		return -1, 0, 0, 0, 0, false
	}

	nCand := b.cfg.MaxFeatures
	if nCand <= 0 || nCand > len(b.feat) {
		nCand = len(b.feat)
	}
	// Partial Fisher-Yates to draw nCand distinct features.
	for i := 0; i < nCand; i++ {
		j := i + b.rng.Intn(len(b.feat)-i)
		b.feat[i], b.feat[j] = b.feat[j], b.feat[i]
	}

	feature = -1
	bestGain := 1e-12 // require strictly positive improvement
	minLeaf := b.cfg.minLeaf()

	// consider records a candidate cut with the given left totals and
	// missing-value direction. Shared by the missing-aware scan only;
	// the all-finite fast path keeps its branch-free inline form.
	consider := func(f int, thr float64, nl, posL int, missLeft bool) {
		nr := wTotal - nl
		if nl < minLeaf || nr < minLeaf {
			return
		}
		g := parentImpurity -
			(float64(nl)*gini(posL, nl)+float64(nr)*gini(wPos-posL, nr))/float64(wTotal)
		if g > bestGain {
			bestGain = g
			feature = f
			threshold = thr
			wLeft = nl
			wPosLeft = posL
			defaultLeft = missLeft
		}
	}

	for c := 0; c < nCand; c++ {
		f := b.feat[c]
		col := b.cols[f]
		o := b.ord[f]

		// Weighted totals of the missing (NaN) tail, if any.
		missW, missPos := 0, 0
		fhi := hi
		for fhi > lo {
			i := o[fhi-1]
			if col[i] == col[i] {
				break
			}
			wyv := b.wy[i]
			wi := int(wyv >> 1)
			missW += wi
			missPos += wi * int(wyv&1)
			fhi--
		}

		if missW == 0 {
			// All-finite fast path: identical to the pre-missing-value
			// scan, so clean data costs (and produces) exactly the same.
			leftW, leftPos := 0, 0
			for k := lo; k < hi-1; k++ {
				i := o[k]
				wyv := b.wy[i]
				wi := int(wyv >> 1)
				leftW += wi
				leftPos += wi * int(wyv&1)
				v := col[i]
				next := col[o[k+1]]
				if v == next {
					continue // can't split between equal values
				}
				nl := leftW
				nr := wTotal - leftW
				if nl < minLeaf || nr < minLeaf {
					continue
				}
				g := parentImpurity -
					(float64(nl)*gini(leftPos, nl)+float64(nr)*gini(wPos-leftPos, nr))/float64(wTotal)
				if g > bestGain {
					bestGain = g
					feature = f
					// Midpoint threshold is robust to unseen values
					// between the two training points. For adjacent
					// floats the midpoint rounds up to next itself, which
					// would route next-valued rows left while the scan
					// counted them right; fall back to v so the cut
					// always lands strictly left of next.
					threshold = (v + next) / 2
					if threshold >= next {
						threshold = v
					}
					wLeft = leftW
					wPosLeft = leftPos
					defaultLeft = false
				}
			}
			continue
		}

		if fhi == lo {
			continue // every value missing: nothing to split on
		}

		// Cuts between finite values, trying both default directions.
		leftW, leftPos := 0, 0
		for k := lo; k < fhi-1; k++ {
			i := o[k]
			wyv := b.wy[i]
			wi := int(wyv >> 1)
			leftW += wi
			leftPos += wi * int(wyv&1)
			v := col[i]
			next := col[o[k+1]]
			if v == next {
				continue
			}
			thr := (v + next) / 2
			if thr >= next {
				thr = v
			}
			consider(f, thr, leftW, leftPos, false)
			consider(f, thr, leftW+missW, leftPos+missPos, true)
		}
		// The finite/missing boundary itself: every finite value left,
		// missing right, cut at the largest finite value.
		consider(f, col[o[fhi-1]], wTotal-missW, wPos-missPos, false)
	}
	if feature < 0 {
		return -1, 0, 0, 0, 0, false
	}
	return feature, threshold, bestGain, wLeft, wPosLeft, defaultLeft
}

// argsort returns the row indices of col sorted ascending in floatKey
// order, ties broken by row index.
func argsort(col []float64) []int32 {
	idx := make([]int32, len(col))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		return cmp.Or(cmp.Compare(floatKey(col[a]), floatKey(col[b])), cmp.Compare(a, b))
	})
	return idx
}

// floatKey maps a float64 to a uint64 whose unsigned order is a total
// order of the floats: -0 sorts before +0 and a quiet NaN above +Inf,
// so the rows with a missing (NaN) value form a contiguous tail of
// every sorted segment.
func floatKey(v float64) uint64 {
	u := math.Float64bits(v)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}

// partitionBySide stably partitions ord[lo:hi] in place by a per-row
// side mask: rows with side[row] == 1 come first. It returns the size
// of the left half; scratch must have length at least hi-lo. Stability
// keeps both halves sorted by whatever feature ord[lo:hi] was sorted
// by. The mask must hold exactly 0 or 1 per row: both destinations are
// written every iteration and the cursors advance by the mask value.
func partitionBySide(ord []int32, lo, hi int, side []byte, scratch []int32) int {
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
	idx := argsort(col)
	checkSorted(t, idx, col)
	want := []int32{4, 1, 3, 2, 0}
	for i, v := range want {
		if idx[i] != v {
			t.Fatalf("idx = %v, want %v", idx, want)
		}
	}
}

// TestArgsortWorstCases covers the inputs that make naive quicksorts
// quadratic: constant columns (all ties) and already-sorted /
// reverse-sorted input. Beyond correctness, the run must finish fast —
// a quadratic blowup on 200k constant values would take minutes, so
// the deadline guards the complexity regression.
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
			idx := argsort(col)
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("argsort of %s column took %v; quadratic regression?", name, d)
			}
			checkSorted(t, idx, col)
		})
	}
}

// TestArgsortTotalOrder pins the order the exact grower relies on:
// -Inf < finite < +Inf < NaN, -0 before +0, ties by row index.
func TestArgsortTotalOrder(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	col := []float64{nan, 0, inf, 1, negZero, -inf, nan, 1, negZero, -1}
	want := []int32{5, 9, 4, 8, 1, 3, 7, 2, 0, 6}
	if got := argsort(col); !slices.Equal(got, want) {
		t.Fatalf("argsort = %v, want %v", got, want)
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
		checkSorted(t, argsort(col), col)
	}
}

func TestArgsortEmptyAndSingle(t *testing.T) {
	if idx := argsort(nil); len(idx) != 0 {
		t.Fatalf("argsort(nil) = %v", idx)
	}
	if idx := argsort([]float64{7}); len(idx) != 1 || idx[0] != 0 {
		t.Fatalf("argsort singleton = %v", idx)
	}
}

// partitionByThreshold is the reference partition partitionBySide is
// checked against: it stably partitions ord[lo:hi] in place so that
// rows with col[row] <= threshold come first (NaN goes right), and
// returns the size of the left half. scratch must have capacity at
// least hi-lo.
func partitionByThreshold(ord []int32, lo, hi int, col []float64, threshold float64, scratch []int32) int {
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
	ord := argsort(col) // 5 1 3 4 2 0 (values 0 1 2 3 4 5)
	scratch := make([]int32, len(ord))
	nl := partitionByThreshold(ord, 0, len(ord), col, 2.5, scratch)
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
	ordA := argsort(a)
	scratch := make([]int32, n)
	nl := partitionByThreshold(ordA, 0, n, b, 0, scratch)
	checkSorted(t, ordA[:nl], a)
	checkSorted(t, ordA[nl:], a)

	// Partition a sub-range of the left half again (as a deeper tree
	// node would) and re-check.
	if nl > 10 {
		nl2 := partitionByThreshold(ordA, 2, nl, b, -0.5, scratch)
		checkSorted(t, ordA[2:2+nl2], a)
		checkSorted(t, ordA[2+nl2:nl], a)
	}
}

func TestPartitionEdges(t *testing.T) {
	col := []float64{1, 2, 3}
	scratch := make([]int32, 3)

	ord := argsort(col)
	if nl := partitionByThreshold(ord, 0, 3, col, 10, scratch); nl != 3 {
		t.Fatalf("all-left partition = %d", nl)
	}
	checkSorted(t, ord, col)

	ord = argsort(col)
	if nl := partitionByThreshold(ord, 0, 3, col, -10, scratch); nl != 0 {
		t.Fatalf("all-right partition = %d", nl)
	}
	checkSorted(t, ord, col)

	ord = argsort(col)
	if nl := partitionByThreshold(ord, 1, 1, col, 0, scratch); nl != 0 {
		t.Fatalf("empty-range partition = %d", nl)
	}
}

// TestpartitionBySideMatchesThreshold checks the byte-mask fast path
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
	byThresh := argsort(a)
	bySide := append([]int32(nil), byThresh...)
	nl1 := partitionByThreshold(byThresh, 5, n-3, b, 0.25, scratch)
	nl2 := partitionBySide(bySide, 5, n-3, side, scratch)
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
