// Package selection implements the preliminary feature-selection
// approaches WEFR ensembles (Section II-C of the paper) — Pearson
// correlation, Spearman correlation, J-index (Youden), Random Forest
// feature importance, and XGBoost feature importance, plus the
// mutual-information and SVM-margin entrants — all behind a common
// Ranker interface, with truncation helpers used by the
// fixed-percentage baselines of Exp#1 and Exp#2.
//
// Rankers are looked up through a string-keyed registry (Register /
// Resolve): every spec-driven surface — core.Config.RankerSpecs, the
// -rankers CLI flags, the rank-eval harness — resolves names through
// it, and third-party rankers plug in by registering a factory.
package selection

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/forest"
	"repro/internal/frame"
	"repro/internal/gbdt"
	"repro/internal/stats"
)

// Errors returned by rankers.
var (
	// ErrEmptyFrame indicates a ranking request over an empty frame.
	ErrEmptyFrame = errors.New("selection: empty frame")
	// ErrSingleClass indicates a frame whose labels contain only one
	// class, for which importance is undefined.
	ErrSingleClass = errors.New("selection: need both classes present")
)

// Result carries one approach's view of feature importance.
type Result struct {
	// Scores holds one importance score per feature column; higher
	// means more important. Scores of different rankers are not
	// comparable to each other — only the induced rankings are.
	Scores []float64
	// Ranks holds the 1-based fractional rank of each feature (1 =
	// most important; ties share the average rank).
	Ranks []float64
}

// TopN returns the indices of the n highest-ranked features, best
// first. n is clamped to the feature count.
func (r Result) TopN(n int) []int {
	order := stats.ArgsortAscending(r.Ranks)
	if n > len(order) {
		n = len(order)
	}
	if n < 0 {
		n = 0
	}
	return order[:n]
}

// TopPercent returns the indices of the top pct (0..1] fraction of
// features, best first, keeping at least one.
func (r Result) TopPercent(pct float64) []int {
	n := int(float64(len(r.Ranks)) * pct)
	if n < 1 {
		n = 1
	}
	return r.TopN(n)
}

// Ranker scores every feature of a learning frame.
type Ranker interface {
	// Name identifies the approach in reports and tables.
	Name() string
	// Rank computes importance scores and ranks for every feature.
	Rank(fr *frame.Frame) (Result, error)
}

func validate(fr *frame.Frame) error {
	if fr == nil || fr.NumRows() == 0 || fr.NumFeatures() == 0 {
		return ErrEmptyFrame
	}
	pos := fr.Positives()
	if pos == 0 || pos == fr.NumRows() {
		return ErrSingleClass
	}
	return nil
}

func resultFromScores(scores []float64) Result {
	return Result{Scores: scores, Ranks: stats.ScoresToRanks(scores)}
}

// finiteRows restricts a feature column and the paired target to the
// rows where the feature value is finite (pairwise deletion). When the
// column is entirely finite it returns the inputs unchanged — the clean
// path allocates nothing and is bit-identical to unfiltered behaviour.
// The buffers are reused across features to avoid per-column allocation.
func finiteRows(col, y []float64, xbuf, ybuf *[]float64) (xs, ys []float64, filtered bool) {
	clean := true
	for _, v := range col {
		if v-v != 0 { // non-finite (NaN or ±Inf)
			clean = false
			break
		}
	}
	if clean {
		return col, y, false
	}
	xs = (*xbuf)[:0]
	ys = (*ybuf)[:0]
	for i, v := range col {
		if v-v != 0 {
			continue
		}
		xs = append(xs, v)
		ys = append(ys, y[i])
	}
	*xbuf, *ybuf = xs, ys
	return xs, ys, true
}

// Pearson ranks features by the absolute Pearson correlation between
// the feature and the target variable.
type Pearson struct{}

var _ Ranker = Pearson{}

// Name implements Ranker.
func (Pearson) Name() string { return "Pearson" }

// Rank implements Ranker. Constant, all-missing, and otherwise
// degenerate features score 0 (the defined worst rank); missing values
// in partially observed features are dropped pairwise.
func (Pearson) Rank(fr *frame.Frame) (Result, error) {
	if err := validate(fr); err != nil {
		return Result{}, err
	}
	y := fr.LabelsFloat()
	scores := make([]float64, fr.NumFeatures())
	var xbuf, ybuf []float64
	for i := range scores {
		xs, ys, _ := finiteRows(fr.Col(i), y, &xbuf, &ybuf)
		if len(xs) == 0 {
			scores[i] = 0
			continue
		}
		r, err := stats.Pearson(xs, ys)
		switch {
		case errors.Is(err, stats.ErrZeroVariance):
			scores[i] = 0
		case err != nil:
			return Result{}, fmt.Errorf("selection: pearson feature %d: %w", i, err)
		default:
			scores[i] = abs(r)
		}
	}
	return resultFromScores(scores), nil
}

// Spearman ranks features by the absolute Spearman rank correlation
// between the feature and the target variable, capturing monotonic
// (not only linear) relationships.
type Spearman struct{}

var _ Ranker = Spearman{}

// Name implements Ranker.
func (Spearman) Name() string { return "Spearman" }

// Rank implements Ranker. Constant, all-missing, and otherwise
// degenerate features score 0 (the defined worst rank); missing values
// in partially observed features are dropped pairwise, with the target
// re-ranked over the surviving rows.
func (Spearman) Rank(fr *frame.Frame) (Result, error) {
	if err := validate(fr); err != nil {
		return Result{}, err
	}
	y := fr.LabelsFloat()
	yRanks := stats.Ranks(y)
	scores := make([]float64, fr.NumFeatures())
	var xbuf, ybuf []float64
	for i := range scores {
		xs, ys, filtered := finiteRows(fr.Col(i), y, &xbuf, &ybuf)
		if len(xs) == 0 {
			scores[i] = 0
			continue
		}
		yr := yRanks
		if filtered {
			yr = stats.Ranks(ys)
		}
		r, err := stats.Pearson(stats.Ranks(xs), yr)
		switch {
		case errors.Is(err, stats.ErrZeroVariance):
			scores[i] = 0
		case err != nil:
			return Result{}, fmt.Errorf("selection: spearman feature %d: %w", i, err)
		default:
			scores[i] = abs(r)
		}
	}
	return resultFromScores(scores), nil
}

// JIndex ranks features by the Youden index: the best achievable
// TPR - FPR over all single-feature threshold classifiers, in either
// direction. It measures how well one feature alone separates failed
// from healthy samples.
type JIndex struct{}

var _ Ranker = JIndex{}

// Name implements Ranker.
func (JIndex) Name() string { return "J-index" }

// Rank implements Ranker. Rows with a missing (non-finite) value are
// excluded from that feature's sweep; a feature whose finite rows are
// single-class or empty scores 0, the defined worst rank.
func (JIndex) Rank(fr *frame.Frame) (Result, error) {
	if err := validate(fr); err != nil {
		return Result{}, err
	}
	labels := fr.Labels()
	scores := make([]float64, fr.NumFeatures())
	idx := make([]int, 0, fr.NumRows())
	for i := range scores {
		col := fr.Col(i)
		idx = idx[:0]
		pos := 0
		for k := range col {
			if col[k]-col[k] != 0 { // non-finite: not comparable to any threshold
				continue
			}
			idx = append(idx, k)
			if labels[k] == 1 {
				pos++
			}
		}
		neg := len(idx) - pos
		if pos == 0 || neg == 0 {
			scores[i] = 0
			continue
		}
		sort.Slice(idx, func(a, b int) bool { return col[idx[a]] < col[idx[b]] })
		// Sweep thresholds between distinct values; at each cut,
		// J = |TPR - FPR| for the "predict positive above cut" rule
		// (the absolute value also covers the inverted rule).
		var tpBelow, fpBelow int
		best := 0.0
		for k := 0; k < len(idx)-1; k++ {
			if labels[idx[k]] == 1 {
				tpBelow++
			} else {
				fpBelow++
			}
			if col[idx[k]] == col[idx[k+1]] {
				continue
			}
			tpr := float64(pos-tpBelow) / float64(pos)
			fpr := float64(neg-fpBelow) / float64(neg)
			if j := abs(tpr - fpr); j > best {
				best = j
			}
		}
		scores[i] = best
	}
	return resultFromScores(scores), nil
}

// RandomForest ranks features by the mean-decrease-in-impurity
// importance of a bagged forest (Breiman 2001), as used for SSD failure
// prediction by Narayanan et al.
type RandomForest struct {
	// Trees is the forest size; 0 means 50 (ranking needs fewer trees
	// than prediction).
	Trees int
	// MaxDepth limits tree depth; 0 means 10.
	MaxDepth int
	// Seed makes ranking deterministic.
	Seed int64
}

var _ Ranker = RandomForest{}

// Name implements Ranker.
func (RandomForest) Name() string { return "Random Forest" }

// Rank implements Ranker.
func (r RandomForest) Rank(fr *frame.Frame) (Result, error) {
	if err := validate(fr); err != nil {
		return Result{}, err
	}
	trees := r.Trees
	if trees <= 0 {
		trees = 50
	}
	depth := r.MaxDepth
	if depth <= 0 {
		depth = 10
	}
	cols := make([][]float64, fr.NumFeatures())
	for i := range cols {
		cols[i] = fr.Col(i)
	}
	f, err := forest.Fit(cols, fr.Labels(), forest.Config{
		NumTrees: trees, MaxDepth: depth, Seed: r.Seed,
	})
	if err != nil {
		return Result{}, fmt.Errorf("selection: random forest: %w", err)
	}
	imp, err := f.ImpurityImportance()
	if err != nil {
		return Result{}, fmt.Errorf("selection: random forest importance: %w", err)
	}
	return resultFromScores(imp), nil
}

// XGBoost ranks features by the total split gain of a gradient-boosted
// tree ensemble.
type XGBoost struct {
	// Rounds is the boosting round count; 0 means 40.
	Rounds int
	// MaxDepth limits tree depth; 0 means 5.
	MaxDepth int
}

var _ Ranker = XGBoost{}

// Name implements Ranker.
func (XGBoost) Name() string { return "XGBoost" }

// Rank implements Ranker.
func (x XGBoost) Rank(fr *frame.Frame) (Result, error) {
	if err := validate(fr); err != nil {
		return Result{}, err
	}
	rounds := x.Rounds
	if rounds <= 0 {
		rounds = 40
	}
	depth := x.MaxDepth
	if depth <= 0 {
		depth = 5
	}
	cols := make([][]float64, fr.NumFeatures())
	for i := range cols {
		cols[i] = fr.Col(i)
	}
	m, err := gbdt.Fit(cols, fr.Labels(), gbdt.Config{
		NumRounds: rounds, MaxDepth: depth, Eta: 0.3, Lambda: 1,
	})
	if err != nil {
		return Result{}, fmt.Errorf("selection: xgboost: %w", err)
	}
	gain, err := m.GainImportance()
	if err != nil {
		return Result{}, fmt.Errorf("selection: xgboost importance: %w", err)
	}
	return resultFromScores(gain), nil
}

// DefaultRankers returns the paper's five preliminary approaches with
// deterministic settings derived from seed: DefaultSpecs resolved
// through the registry.
func DefaultRankers(seed int64) []Ranker {
	rankers, err := ResolveAll(DefaultSpecs(), seed)
	if err != nil {
		// Unreachable: the default specs are registered in this
		// package's init.
		panic(err)
	}
	return rankers
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
