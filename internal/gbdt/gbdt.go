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

	"repro/internal/hist"
	"repro/internal/presort"
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
	// SplitMethod selects exact presorted split search (the zero value,
	// bit-identical to earlier releases) or the histogram-binned path
	// (see internal/hist), which quantizes the data once and reuses the
	// binning across every boosting round.
	SplitMethod hist.SplitMethod
	// MaxBins caps per-feature histogram bins (including the missing
	// bin) on the hist path; 0 means hist.DefaultMaxBins.
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

// Fit trains a boosted model on column-major data with binary labels.
func Fit(cols [][]float64, y []int, cfg Config) (*Model, error) {
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

	m := &Model{
		base:      base,
		cfg:       cfg,
		nFeatures: len(cols),
		gain:      make([]float64, len(cols)),
		splits:    make([]int, len(cols)),
	}

	if cfg.SplitMethod == hist.SplitHist {
		m.fitHist(cols, y)
		return m, nil
	}

	// Presort row indices per feature once (shared sort machinery with
	// internal/tree); every tree reuses the ordering through the nodeOf
	// partition masks.
	order := presort.All(cols)

	margin := make([]float64, n)
	for i := range margin {
		margin[i] = base
	}
	grad := make([]float64, n)
	hess := make([]float64, n)
	nodeOf := make([]int32, n) // which leaf each sample currently sits in

	for round := 0; round < cfg.NumRounds; round++ {
		for i := 0; i < n; i++ {
			p := sigmoid(margin[i])
			grad[i] = p - float64(y[i])
			hess[i] = p * (1 - p)
		}
		t := m.growTree(cols, order, grad, hess, nodeOf)
		m.trees = append(m.trees, t)
		// Margin update walks the columns directly; no per-row gather.
		t.predictBatchAdd(cols, cfg.Eta, margin)
	}
	return m, nil
}

// growTree grows one Newton regression tree level by level.
func (m *Model) growTree(cols [][]float64, order [][]int32, grad, hess []float64, nodeOf []int32) *regTree {
	cfg := m.cfg
	n := len(grad)
	t := &regTree{}

	var sumG, sumH float64
	for i := 0; i < n; i++ {
		sumG += grad[i]
		sumH += hess[i]
		nodeOf[i] = 0
	}
	t.nodes = append(t.nodes, regNode{feature: -1, weight: leafWeight(sumG, sumH, cfg.Lambda)})

	type nodeStat struct {
		id   int
		g, h float64
		size int
	}
	frontier := []nodeStat{{id: 0, g: sumG, h: sumH, size: n}}

	for depth := 0; depth < cfg.MaxDepth && len(frontier) > 0; depth++ {
		// Best split per frontier node, found by one pass per feature
		// over the presorted order. All per-node state lives in dense
		// slices indexed by frontier slot — the sample loop runs
		// n x features times per level, so a map lookup per sample
		// would dominate the whole fit.
		type split struct {
			feature     int
			threshold   float64
			gain        float64
			gl, hl      float64
			sizeL       int
			defaultLeft bool
		}
		// slotOf maps a node id to its frontier slot + 1 (0 = not in
		// the frontier).
		slotOf := make([]int32, len(t.nodes))
		for s, fs := range frontier {
			slotOf[fs.id] = int32(s + 1)
		}
		best := make([]split, len(frontier))
		for s := range best {
			best[s].feature = -1
		}
		// Per-node running left sums for the current feature.
		type acc struct {
			g, h  float64
			cnt   int
			lastV float64
			has   bool
		}
		accs := make([]acc, len(frontier))
		// Per-node grad/hess/count of the rows whose current feature is
		// missing (NaN). Missing rows sit in a contiguous tail of each
		// presorted order, so they are summed in one pass before the
		// finite scan and each candidate cut is tried with the missing
		// mass routed to either child (XGBoost's sparsity-aware split).
		missG := make([]float64, len(frontier))
		missH := make([]float64, len(frontier))
		missCnt := make([]int, len(frontier))
		for f := range cols {
			col := cols[f]
			ord := order[f]
			fin := len(ord)
			for fin > 0 {
				v := col[ord[fin-1]]
				if v == v {
					break
				}
				fin--
			}
			for s := range accs {
				accs[s] = acc{}
			}
			if fin == len(ord) {
				// All-finite fast path: identical to the scan that
				// predates missing-value support, bit for bit.
				for _, i := range ord {
					s := slotOf[nodeOf[i]] - 1
					if s < 0 {
						continue // sample not in a frontier node
					}
					a := &accs[s]
					fs := &frontier[s]
					v := col[i]
					// A split boundary exists before i when the value
					// changes and both sides are non-empty.
					if a.has && v != a.lastV && a.cnt > 0 && a.cnt < fs.size {
						gl, hl := a.g, a.h
						gr, hr := fs.g-gl, fs.h-hl
						if hl >= cfg.MinChildWeight && hr >= cfg.MinChildWeight {
							gain := splitGain(gl, hl, gr, hr, cfg.Lambda) - cfg.Gamma
							if gain > 0 {
								if cur := &best[s]; cur.feature < 0 || gain > cur.gain {
									// For adjacent floats the midpoint
									// rounds up to v itself, which would
									// route v-valued rows left while their
									// grad/hess were summed right; fall
									// back to lastV so the cut stays
									// strictly left of v.
									thr := (a.lastV + v) / 2
									if thr >= v {
										thr = a.lastV
									}
									*cur = split{
										feature:   f,
										threshold: thr,
										gain:      gain,
										gl:        gl, hl: hl,
										sizeL: a.cnt,
									}
								}
							}
						}
					}
					a.g += grad[i]
					a.h += hess[i]
					a.cnt++
					a.lastV = v
					a.has = true
				}
				continue
			}

			// Missing-aware path. Sum the NaN tail per frontier node…
			for s := range missG {
				missG[s], missH[s], missCnt[s] = 0, 0, 0
			}
			for _, i := range ord[fin:] {
				s := slotOf[nodeOf[i]] - 1
				if s < 0 {
					continue
				}
				missG[s] += grad[i]
				missH[s] += hess[i]
				missCnt[s]++
			}
			// tryCut records a candidate with the given left-child mass
			// and missing direction.
			tryCut := func(s int32, f int, thr, gl, hl float64, sizeL int, missLeft bool) {
				fs := &frontier[s]
				gr, hr := fs.g-gl, fs.h-hl
				if hl < cfg.MinChildWeight || hr < cfg.MinChildWeight {
					return
				}
				gain := splitGain(gl, hl, gr, hr, cfg.Lambda) - cfg.Gamma
				if gain <= 0 {
					return
				}
				if cur := &best[s]; cur.feature < 0 || gain > cur.gain {
					*cur = split{
						feature:   f,
						threshold: thr,
						gain:      gain,
						gl:        gl, hl: hl,
						sizeL:       sizeL,
						defaultLeft: missLeft,
					}
				}
			}
			// …then scan the finite prefix, trying each boundary with
			// the missing mass on the right (default) and on the left.
			for _, i := range ord[:fin] {
				s := slotOf[nodeOf[i]] - 1
				if s < 0 {
					continue
				}
				a := &accs[s]
				fs := &frontier[s]
				v := col[i]
				if a.has && v != a.lastV && a.cnt > 0 && a.cnt+missCnt[s] < fs.size {
					thr := (a.lastV + v) / 2
					if thr >= v {
						thr = a.lastV
					}
					tryCut(s, f, thr, a.g, a.h, a.cnt, false)
					if missCnt[s] > 0 {
						tryCut(s, f, thr, a.g+missG[s], a.h+missH[s], a.cnt+missCnt[s], true)
					}
				}
				a.g += grad[i]
				a.h += hess[i]
				a.cnt++
				a.lastV = v
				a.has = true
			}
			// The finite/missing boundary: every finite value left,
			// missing right, cut at the node's largest finite value.
			for s := range accs {
				a := &accs[s]
				if !a.has || missCnt[s] == 0 {
					continue
				}
				tryCut(int32(s), f, a.lastV, a.g, a.h, a.cnt, false)
			}
		}

		// Apply the chosen splits and build the next frontier.
		// childOf is indexed by parent node id; child ids are always
		// positive, so a zero entry means "no split".
		var next []nodeStat
		childOf := make([][2]int32, len(t.nodes))
		split2 := 0
		for s, fs := range frontier {
			sp := best[s]
			if sp.feature < 0 {
				continue
			}
			l := len(t.nodes)
			t.nodes = append(t.nodes,
				regNode{feature: -1, weight: leafWeight(sp.gl, sp.hl, cfg.Lambda)},
				regNode{feature: -1, weight: leafWeight(fs.g-sp.gl, fs.h-sp.hl, cfg.Lambda)},
			)
			nd := &t.nodes[fs.id]
			nd.feature = sp.feature
			nd.threshold = sp.threshold
			nd.left = l
			nd.right = l + 1
			nd.defaultLeft = sp.defaultLeft
			childOf[fs.id] = [2]int32{int32(l), int32(l + 1)}
			split2++
			m.gain[sp.feature] += sp.gain
			m.splits[sp.feature]++
			next = append(next,
				nodeStat{id: l, g: sp.gl, h: sp.hl, size: sp.sizeL},
				nodeStat{id: l + 1, g: fs.g - sp.gl, h: fs.h - sp.hl, size: fs.size - sp.sizeL},
			)
		}
		if split2 == 0 {
			break
		}
		// Reassign samples to children.
		for i := 0; i < n; i++ {
			id := nodeOf[i]
			ch := childOf[id]
			if ch[0] == 0 {
				continue
			}
			nd := &t.nodes[id]
			v := cols[nd.feature][i]
			if v <= nd.threshold || (v != v && nd.defaultLeft) {
				nodeOf[i] = ch[0]
			} else {
				nodeOf[i] = ch[1]
			}
		}
		frontier = next
	}
	return t
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
