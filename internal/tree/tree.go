// Package tree implements CART-style binary decision trees from scratch:
// a Gini-impurity classifier used by the Random Forest, with depth and
// leaf-size limits and per-feature random subsampling. The gradient-
// boosted (Newton) regression tree lives in internal/gbdt, which reuses
// this package's node layout.
//
// Trees operate on column-major data (cols[f][i] is feature f of sample
// i) because split search iterates feature-wise; prediction takes a
// row-major feature vector or, for batches, the column-major data
// directly.
//
// FitClassifierBinned is the grower: split search scans per-node bin
// histograms over a matrix quantized once per dataset (internal/hist),
// and bootstrap replicates are integer per-row sample weights, so a
// Random Forest shares one binned matrix across all of its trees.
// FitClassifier is the exact reference the binned grower is tested
// against: each feature's row order is argsorted once
// (internal/presort) and maintained down the tree by stable in-place
// partitioning, and every node scans its sorted segment for the exact
// best midpoint.
package tree

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/presort"
)

// Errors returned by tree fitting.
var (
	// ErrNoData indicates a fit over zero samples.
	ErrNoData = errors.New("tree: no training samples")
	// ErrShapeMismatch indicates columns and labels of unequal length.
	ErrShapeMismatch = errors.New("tree: shape mismatch")
)

// Config controls tree induction. The zero value is usable: it grows an
// unlimited-depth tree considering every feature at every split with
// minimum leaf size 1.
type Config struct {
	// MaxDepth limits tree depth; 0 means unlimited.
	MaxDepth int
	// MinLeafSamples is the minimum number of samples in a leaf;
	// values below 1 are treated as 1.
	MinLeafSamples int
	// MinSplitSamples is the minimum number of samples required to
	// attempt a split; values below 2 are treated as 2.
	MinSplitSamples int
	// MaxFeatures is the number of features sampled (without
	// replacement) as split candidates at each node; 0 means all.
	MaxFeatures int
	// Seed seeds the per-node feature subsampling. Two fits with the
	// same data, config, and seed produce identical trees.
	Seed int64
}

func (c Config) minLeaf() int {
	if c.MinLeafSamples < 1 {
		return 1
	}
	return c.MinLeafSamples
}

func (c Config) minSplit() int {
	if c.MinSplitSamples < 2 {
		return 2
	}
	return c.MinSplitSamples
}

// node is one tree node. Leaves have feature == -1.
type node struct {
	feature     int     // split feature index, or -1 for a leaf
	threshold   float64 // go left when x[feature] <= threshold
	left        int     // index of left child in nodes
	right       int     // index of right child in nodes
	prob        float64 // leaf: fraction of positive samples
	samples     int     // training samples that reached this node
	defaultLeft bool    // where rows with a missing (NaN) value go
}

// Classifier is a fitted binary classification tree. It predicts the
// positive-class probability as the positive fraction of the training
// samples in the reached leaf.
type Classifier struct {
	nodes      []node
	nFeatures  int
	importance []float64 // impurity-decrease per feature, unnormalized
	depth      int
}

// FitClassifier grows a classification tree on the given column-major
// data with exact split search. idx selects the training rows (pass nil
// to use every row); the same row may appear multiple times (bootstrap
// replicates), which the fit counts as an integer per-row weight.
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
	ord := presort.All(cols)
	rows := 0
	for f, full := range ord {
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
			presort.PartitionBySide(b.ord[f], lo, hi, b.side, b.buf)
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

// leafStop is the leaf predicate shared by the exact and binned
// builders, so both paths terminate on identical conditions.
func leafStop(cfg Config, wTotal, wPos, depth int) bool {
	return wPos == 0 || wPos == wTotal ||
		wTotal < cfg.minSplit() ||
		(cfg.MaxDepth > 0 && depth >= cfg.MaxDepth)
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

// gini returns the Gini impurity of a node with pos positives among n.
func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// PredictProba returns the positive-class probability for one sample
// given as a row-major feature vector of length NumFeatures. Missing
// (NaN) feature values follow each node's learned default direction.
func (t *Classifier) PredictProba(x []float64) float64 {
	i := 0
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.prob
		}
		v := x[nd.feature]
		if v <= nd.threshold || (v != v && nd.defaultLeft) {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// PredictProbaBatch scores every row of column-major data (cols[f][i]
// is feature f of row i), writing row i's positive-class probability
// into out[i]. cols must have NumFeatures columns, each at least
// len(out) long. Reading feature columns directly avoids gathering a
// row vector per sample.
//
// The (cols, out) error shape is shared with forest.Forest and the
// flat-compiled forest, so callers swap one for the other without
// adapters.
func (t *Classifier) PredictProbaBatch(cols [][]float64, out []float64) error {
	if len(cols) != t.nFeatures {
		return fmt.Errorf("%w: %d columns, fitted with %d", ErrShapeMismatch, len(cols), t.nFeatures)
	}
	for f, c := range cols {
		if len(c) < len(out) {
			return fmt.Errorf("%w: column %d has %d rows, out has %d", ErrShapeMismatch, f, len(c), len(out))
		}
	}
	for i := range out {
		out[i] = 0
	}
	t.PredictProbaBatchAdd(cols, out)
	return nil
}

// PredictProbaBatchAdd adds each row's positive-class probability into
// out[i] (without zeroing), letting ensemble callers accumulate the sum
// over many trees in a single output buffer.
func (t *Classifier) PredictProbaBatchAdd(cols [][]float64, out []float64) {
	nodes := t.nodes
	for i := range out {
		k := 0
		for {
			nd := &nodes[k]
			if nd.feature < 0 {
				out[i] += nd.prob
				break
			}
			v := cols[nd.feature][i]
			if v <= nd.threshold || (v != v && nd.defaultLeft) {
				k = nd.left
			} else {
				k = nd.right
			}
		}
	}
}

// NumFeatures returns the feature count the tree was fitted with.
func (t *Classifier) NumFeatures() int { return t.nFeatures }

// NumNodes returns the total node count (internal + leaves).
func (t *Classifier) NumNodes() int { return len(t.nodes) }

// Depth returns the depth of the deepest node (root = 0).
func (t *Classifier) Depth() int { return t.depth }

// Importance returns the per-feature total impurity decrease
// (sample-weighted, unnormalized). The caller owns the returned slice.
func (t *Classifier) Importance() []float64 {
	return append([]float64(nil), t.importance...)
}
