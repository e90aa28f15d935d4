package gbdt

// Prediction and split-count importance exist only for this package's
// fit-quality tests: the engine's prediction model is the Random
// Forest, and the XGBoost ranker reads GainImportance alone.

func (t *regTree) predict(x []float64) float64 {
	i := 0
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.weight
		}
		v := x[nd.feature]
		if v <= nd.threshold || (v != v && nd.defaultLeft) {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// PredictMargin returns the raw additive margin (log-odds) for one
// sample.
func (m *Model) PredictMargin(x []float64) float64 {
	out := m.base
	for _, t := range m.trees {
		out += m.cfg.Eta * t.predict(x)
	}
	return out
}

// PredictProba returns the positive-class probability for one sample.
func (m *Model) PredictProba(x []float64) float64 {
	return sigmoid(m.PredictMargin(x))
}

// NumTrees returns the number of boosted stages.
func (m *Model) NumTrees() int { return len(m.trees) }

// NumFeatures returns the feature count the model was fitted with.
func (m *Model) NumFeatures() int { return len(m.gain) }

// WeightImportance returns the per-feature split counts ("weight" in
// XGBoost terminology): the internal nodes that split on each feature.
func (m *Model) WeightImportance() ([]int, error) {
	if len(m.trees) == 0 {
		return nil, ErrNotFitted
	}
	out := make([]int, len(m.gain))
	for _, t := range m.trees {
		for _, nd := range t.nodes {
			if nd.feature >= 0 {
				out[nd.feature]++
			}
		}
	}
	return out, nil
}
