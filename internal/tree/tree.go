// Package tree implements CART-style binary decision trees from scratch:
// a Gini-impurity classifier used by the Random Forest, with depth and
// leaf-size limits and per-feature random subsampling. The gradient-
// boosted (Newton) regression tree lives in internal/gbdt, which reuses
// this package's node layout.
//
// FitClassifierBinned is the grower: split search scans per-node bin
// histograms over a matrix quantized once per dataset (internal/hist),
// and bootstrap replicates are integer per-row sample weights, so a
// Random Forest shares one binned matrix across all of its trees.
//
// A fitted Classifier is not a production scorer. Its Export encoding
// is the input internal/flat compiles into the serving kernel, and its
// Importance feeds the forest's impurity ranking. PredictProba, a
// row-wise walk, is the reference the compiled kernel is tested
// against.
package tree

import "errors"

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

// leafStop is the leaf predicate shared by the exact and binned
// builders, so both paths terminate on identical conditions.
func leafStop(cfg Config, wTotal, wPos, depth int) bool {
	return wPos == 0 || wPos == wTotal ||
		wTotal < cfg.minSplit() ||
		(cfg.MaxDepth > 0 && depth >= cfg.MaxDepth)
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
