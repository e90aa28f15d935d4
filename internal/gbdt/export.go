package gbdt

// Encoded is the exported form of a fitted boosted model, consumed by
// compilers (internal/flat) that need the tree structure without
// reaching into unexported state.
type Encoded struct {
	Trees     []EncodedTree
	Base      float64
	Eta       float64
	NFeatures int
}

// EncodedTree is one regression tree as parallel arrays over nodes.
// Leaves have Feature[i] == -1; Weight carries the leaf value.
type EncodedTree struct {
	Feature   []int
	Threshold []float64
	Left      []int
	Right     []int
	Weight    []float64
	// DefaultLeft records each internal node's missing-value routing.
	// Nil in encodings predating missing-value support, which routed
	// missing right.
	DefaultLeft []bool
}

// Export returns the exported form of the model. Importance
// accumulators and other training-only state are not exported; a
// re-imported model predicts identically but cannot report importance.
func (m *Model) Export() (Encoded, error) {
	if len(m.trees) == 0 {
		return Encoded{}, ErrNotFitted
	}
	enc := Encoded{Base: m.base, Eta: m.cfg.Eta, NFeatures: m.nFeatures}
	for _, t := range m.trees {
		et := EncodedTree{}
		for _, nd := range t.nodes {
			et.Feature = append(et.Feature, nd.feature)
			et.Threshold = append(et.Threshold, nd.threshold)
			et.Left = append(et.Left, nd.left)
			et.Right = append(et.Right, nd.right)
			et.Weight = append(et.Weight, nd.weight)
			et.DefaultLeft = append(et.DefaultLeft, nd.defaultLeft)
		}
		enc.Trees = append(enc.Trees, et)
	}
	return enc, nil
}
