// Package gbdt implements an XGBoost-style gradient-boosted decision
// tree binary classifier from scratch: second-order (Newton) boosting
// with logistic loss, L2 leaf regularization (lambda), a minimum split
// gain (gamma), shrinkage (eta), and minimum child hessian weight. It
// exposes the two feature-importance evaluations the paper attributes
// to XGBoost: total split gain per feature and split count ("weight").
package gbdt

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by GBDT fitting.
var (
	// ErrNoData indicates a fit over zero samples or zero features.
	ErrNoData = errors.New("gbdt: no training data")
	// ErrNotFitted indicates use of an unfitted model.
	ErrNotFitted = errors.New("gbdt: not fitted")
	// ErrShapeMismatch indicates prediction input whose shape does not
	// match the fitted model.
	ErrShapeMismatch = errors.New("gbdt: shape mismatch")
)

// Config controls boosting. DefaultConfig mirrors common XGBoost
// defaults scaled for this repository's workloads.
type Config struct {
	// NumRounds is the number of boosted trees (paper: 100).
	NumRounds int
	// MaxDepth limits each tree's depth; 0 means 6 (XGBoost default).
	MaxDepth int
	// Eta is the shrinkage (learning rate); 0 means 0.3.
	Eta float64
	// Lambda is the L2 regularization on leaf weights; 0 means 1.
	Lambda float64
	// Gamma is the minimum gain required to split; negative is treated
	// as 0.
	Gamma float64
	// MinChildWeight is the minimum hessian sum per child; 0 means 1.
	MinChildWeight float64
	// MaxBins caps per-feature histogram bins (including the missing
	// bin); 0 means hist.DefaultMaxBins.
	MaxBins int
}

// DefaultConfig returns 100 rounds of depth-6 trees with eta 0.3,
// lambda 1.
func DefaultConfig() Config {
	return Config{NumRounds: 100, MaxDepth: 6, Eta: 0.3, Lambda: 1}
}

func (c Config) withDefaults() Config {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 6
	}
	if c.Eta <= 0 {
		c.Eta = 0.3
	}
	if c.Lambda <= 0 {
		c.Lambda = 1
	}
	if c.Gamma < 0 {
		c.Gamma = 0
	}
	if c.MinChildWeight <= 0 {
		c.MinChildWeight = 1
	}
	return c
}

// regNode is one node of a Newton regression tree. Leaves have
// feature == -1 and carry the leaf weight.
type regNode struct {
	feature     int
	threshold   float64
	left        int
	right       int
	weight      float64
	defaultLeft bool // where rows with a missing (NaN) value go
}

// regTree is one fitted booster stage.
type regTree struct {
	nodes []regNode
}

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

// Model is a fitted gradient-boosted classifier.
type Model struct {
	trees     []*regTree
	base      float64 // initial log-odds
	cfg       Config
	nFeatures int
	gain      []float64 // total split gain per feature
	splits    []int     // split count per feature
}

// Fit trains a boosted model on column-major data with binary labels,
// growing every round's tree with histogram-binned split search (see
// fitHist).
func Fit(cols [][]float64, y []int, cfg Config) (*Model, error) {
	m, err := newModel(cols, y, cfg)
	if err != nil {
		return nil, err
	}
	m.fitHist(cols, y)
	return m, nil
}

// newModel validates the training data and returns an untrained model
// holding the defaulted config and the base-rate initial margin.
func newModel(cols [][]float64, y []int, cfg Config) (*Model, error) {
	if len(cols) == 0 || len(y) == 0 {
		return nil, ErrNoData
	}
	for f, c := range cols {
		if len(c) != len(y) {
			return nil, fmt.Errorf("gbdt: column %d has %d rows, labels have %d", f, len(c), len(y))
		}
	}
	if cfg.NumRounds <= 0 {
		return nil, fmt.Errorf("gbdt: NumRounds must be positive, got %d", cfg.NumRounds)
	}
	cfg = cfg.withDefaults()

	n := len(y)
	pos := 0
	for _, v := range y {
		pos += v
	}
	// Initial prediction: log-odds of the base rate, clamped away from
	// the degenerate single-class case.
	p0 := (float64(pos) + 0.5) / (float64(n) + 1)
	base := math.Log(p0 / (1 - p0))

	return &Model{
		base:      base,
		cfg:       cfg,
		nFeatures: len(cols),
		gain:      make([]float64, len(cols)),
		splits:    make([]int, len(cols)),
	}, nil
}

// leafWeight is the Newton-optimal leaf value -G/(H+lambda).
func leafWeight(g, h, lambda float64) float64 { return -g / (h + lambda) }

// splitGain is the XGBoost structure-score gain of a split.
func splitGain(gl, hl, gr, hr, lambda float64) float64 {
	score := func(g, h float64) float64 { return g * g / (h + lambda) }
	return 0.5 * (score(gl, hl) + score(gr, hr) - score(gl+gr, hl+hr))
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

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
func (m *Model) NumFeatures() int { return m.nFeatures }

// GainImportance returns the per-feature total split gain, normalized
// to sum to 1 (all-zero if no split was made).
func (m *Model) GainImportance() ([]float64, error) {
	if len(m.trees) == 0 {
		return nil, ErrNotFitted
	}
	out := append([]float64(nil), m.gain...)
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	if sum > 0 {
		for i := range out {
			out[i] /= sum
		}
	}
	return out, nil
}

// WeightImportance returns the per-feature split counts ("weight" in
// XGBoost terminology). The caller owns the returned slice.
func (m *Model) WeightImportance() ([]int, error) {
	if len(m.trees) == 0 {
		return nil, ErrNotFitted
	}
	return append([]int(nil), m.splits...), nil
}

// predictBatchAdd adds scale times each row's leaf weight into out[i],
// reading the column-major data directly.
func (t *regTree) predictBatchAdd(cols [][]float64, scale float64, out []float64) {
	nodes := t.nodes
	for i := range out {
		k := 0
		for {
			nd := &nodes[k]
			if nd.feature < 0 {
				out[i] += scale * nd.weight
				break
			}
			v := cols[nd.feature][i]
			if v <= nd.threshold || (v != v && nd.defaultLeft) {
				k = int(nd.left)
			} else {
				k = int(nd.right)
			}
		}
	}
}

// PredictMarginBatch writes the raw additive margin (log-odds) of every
// row of column-major data into out[i]. cols must have NumFeatures
// columns, each at least len(out) long.
func (m *Model) PredictMarginBatch(cols [][]float64, out []float64) error {
	if len(m.trees) == 0 {
		return ErrNotFitted
	}
	if len(cols) != m.nFeatures {
		return fmt.Errorf("%w: %d columns, fitted with %d", ErrShapeMismatch, len(cols), m.nFeatures)
	}
	for f, c := range cols {
		if len(c) < len(out) {
			return fmt.Errorf("%w: column %d has %d rows, out has %d", ErrShapeMismatch, f, len(c), len(out))
		}
	}
	for i := range out {
		out[i] = m.base
	}
	for _, t := range m.trees {
		t.predictBatchAdd(cols, m.cfg.Eta, out)
	}
	return nil
}

// PredictProbaBatch writes the positive-class probability of every row
// of column-major data into out[i]. The (cols, out) error shape is
// shared with tree.Classifier and forest.Forest (and the flat-compiled
// forms), so ensemble-agnostic callers need no per-family adapters.
func (m *Model) PredictProbaBatch(cols [][]float64, out []float64) error {
	if err := m.PredictMarginBatch(cols, out); err != nil {
		return err
	}
	for i, v := range out {
		out[i] = sigmoid(v)
	}
	return nil
}
