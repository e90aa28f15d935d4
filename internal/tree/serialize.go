package tree

// Encoded is the exported form of a fitted classification tree:
// parallel arrays over nodes, which internal/flat compiles. Leaves have
// Feature[i] == -1.
type Encoded struct {
	Feature   []int
	Threshold []float64
	Left      []int
	Right     []int
	Prob      []float64
	// DefaultLeft records, per internal node, whether rows with a
	// missing (NaN) split-feature value are routed left.
	DefaultLeft []bool
	NFeatures   int
}

// Export returns the encoded form of the tree. Importances and
// training-only state are not exported.
func (t *Classifier) Export() Encoded {
	n := len(t.nodes)
	e := Encoded{
		Feature:     make([]int, n),
		Threshold:   make([]float64, n),
		Left:        make([]int, n),
		Right:       make([]int, n),
		Prob:        make([]float64, n),
		DefaultLeft: make([]bool, n),
		NFeatures:   t.nFeatures,
	}
	for i, nd := range t.nodes {
		e.Feature[i] = nd.feature
		e.Threshold[i] = nd.threshold
		e.Left[i] = nd.left
		e.Right[i] = nd.right
		e.Prob[i] = nd.prob
		e.DefaultLeft[i] = nd.defaultLeft
	}
	return e
}
