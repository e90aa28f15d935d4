// Package forest implements a Random Forest binary classifier on top of
// internal/tree: bootstrap bagging, per-node random feature subsampling,
// parallel histogram-binned tree induction, probability averaging, and
// the mean-decrease-in-impurity feature importance the WEFR paper ranks
// with (Breiman 2001).
package forest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/hist"
	"repro/internal/tree"
)

// Errors returned by forest fitting and importance evaluation.
var (
	// ErrNoData indicates a fit over zero samples or zero features.
	ErrNoData = errors.New("forest: no training data")
	// ErrNotFitted indicates prediction or importance on an unfitted forest.
	ErrNotFitted = errors.New("forest: not fitted")
)

// Config controls forest induction. The zero value is unusable for
// NumTrees; use DefaultConfig for the paper's settings.
type Config struct {
	// NumTrees is the number of bagged trees (paper: 100).
	NumTrees int
	// MaxDepth limits each tree's depth (paper: 13); 0 = unlimited.
	MaxDepth int
	// MinLeafSamples is the per-leaf minimum (default 1).
	MinLeafSamples int
	// MaxFeatures is the number of split candidates per node; 0 means
	// floor(sqrt(#features)), the Random Forest default.
	MaxFeatures int
	// Workers bounds fitting parallelism; 0 means GOMAXPROCS.
	Workers int
	// Seed makes the fit deterministic.
	Seed int64
	// MaxBins caps per-feature histogram bins (including the missing
	// bin); 0 means hist.DefaultMaxBins.
	MaxBins int
}

// DefaultConfig returns the paper's prediction-model settings: 100
// trees of maximum depth 13.
func DefaultConfig() Config {
	return Config{NumTrees: 100, MaxDepth: 13}
}

// Forest is a fitted Random Forest.
type Forest struct {
	trees     []*tree.Classifier
	nFeatures int
}

// Fit trains a forest on column-major data (cols[f][i] is feature f of
// sample i) with binary labels y.
func Fit(cols [][]float64, y []int, cfg Config) (*Forest, error) {
	if len(cols) == 0 || len(y) == 0 {
		return nil, ErrNoData
	}
	for f, c := range cols {
		if len(c) != len(y) {
			return nil, fmt.Errorf("forest: column %d has %d rows, labels have %d", f, len(c), len(y))
		}
	}
	if cfg.NumTrees <= 0 {
		return nil, fmt.Errorf("forest: NumTrees must be positive, got %d", cfg.NumTrees)
	}
	maxFeat := cfg.MaxFeatures
	if maxFeat <= 0 {
		maxFeat = int(math.Sqrt(float64(len(cols))))
		if maxFeat < 1 {
			maxFeat = 1
		}
	}

	n := len(y)
	f := &Forest{
		trees:     make([]*tree.Classifier, cfg.NumTrees),
		nFeatures: len(cols),
	}

	// Draw all bootstrap samples up-front from a single seeded source so
	// the fit is deterministic regardless of worker scheduling. Each
	// bootstrap is a per-row draw-count vector rather than a duplicated
	// index list, which is what lets every tree share one binned matrix.
	boots := make([][]int, cfg.NumTrees)
	seeds := make([]int64, cfg.NumTrees)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for t := 0; t < cfg.NumTrees; t++ {
		w := make([]int, n)
		for i := 0; i < n; i++ {
			w[rng.Intn(n)]++
		}
		boots[t] = w
		seeds[t] = rng.Int63()
	}

	// Every feature is quantized once, columns spread across the same
	// Workers that grow the trees, and all trees share the binned
	// matrix. Binning does not depend on the worker count.
	bm := hist.Bin(cols, cfg.MaxBins, cfg.Workers)

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.NumTrees {
		workers = cfg.NumTrees
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One scratch arena per worker, reused across its trees, so
			// per-tree working memory is allocated workers times total
			// instead of NumTrees times. Trees depend only on their
			// pre-drawn bootstrap and seed, so results are bit-identical
			// at any worker count.
			sc := tree.NewHistScratch()
			for t := range work {
				tr, err := tree.FitClassifierBinned(bm, y, boots[t], tree.Config{
					MaxDepth:       cfg.MaxDepth,
					MinLeafSamples: cfg.MinLeafSamples,
					MaxFeatures:    maxFeat,
					Seed:           seeds[t],
				}, sc)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("forest: tree %d: %w", t, err)
					}
					mu.Unlock()
					continue
				}
				f.trees[t] = tr
			}
		}()
	}
	for t := 0; t < cfg.NumTrees; t++ {
		work <- t
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return f, nil
}

// PredictProba returns the positive-class probability for one sample:
// the mean of the per-tree leaf probabilities, summed in tree order and
// then divided. It is the row-wise reference the compiled kernel
// (internal/flat) is tested against; production scores through that
// kernel.
func (f *Forest) PredictProba(x []float64) float64 {
	sum := 0.0
	for _, t := range f.trees {
		sum += t.PredictProba(x)
	}
	return sum / float64(len(f.trees))
}

// NumTrees returns the number of fitted trees.
func (f *Forest) NumTrees() int { return len(f.trees) }

// Trees exposes the fitted trees for compilers (internal/flat) that
// re-encode the ensemble. The slice and the trees are owned by the
// forest and must be treated as read-only.
func (f *Forest) Trees() []*tree.Classifier { return f.trees }

// NumFeatures returns the feature count the forest was fitted with.
func (f *Forest) NumFeatures() int { return f.nFeatures }

// ImpurityImportance returns the mean-decrease-in-impurity feature
// importance, averaged over trees and normalized to sum to 1 (all-zero
// if no split was ever made).
func (f *Forest) ImpurityImportance() ([]float64, error) {
	if len(f.trees) == 0 {
		return nil, ErrNotFitted
	}
	total := make([]float64, f.nFeatures)
	for _, t := range f.trees {
		for i, v := range t.Importance() {
			total[i] += v
		}
	}
	sum := 0.0
	for _, v := range total {
		sum += v
	}
	if sum > 0 {
		for i := range total {
			total[i] /= sum
		}
	}
	return total, nil
}
