package tree

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hist"
)

// lowCardData builds SMART-like low-cardinality columns (integer
// counters, a sprinkling of NaNs) with a planted signal.
func lowCardData(n, features int, seed int64) (cols [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	y = make([]int, n)
	cols = make([][]float64, features)
	for f := range cols {
		cols[f] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.2 {
			y[i] = 1
		}
		for f := range cols {
			v := float64(rng.Intn(8))
			if y[i] == 1 && f%2 == 0 {
				v += float64(rng.Intn(3))
			}
			if rng.Float64() < 0.05 {
				v = math.NaN()
			}
			cols[f][i] = v
		}
	}
	return cols, y
}

// TestBinnedMatchesExactOnLowCardinality pins the equivalence the
// binned path is designed around: on columns with fewer distinct values
// than bins, every bin boundary present in a node is an exact-path
// candidate with the same weighted partition, so the grown trees route
// every in-bag (weight > 0) row identically and accumulate identical
// importances. Out-of-bag rows may diverge: a value absent from a
// node's in-bag rows can fall between the exact path's node-local
// midpoint and the binned path's global boundary for the same split.
func TestBinnedMatchesExactOnLowCardinality(t *testing.T) {
	cols, y := lowCardData(600, 7, 11)
	weights := make([]int, len(y))
	rng := rand.New(rand.NewSource(3))
	for i := range weights {
		weights[i] = rng.Intn(3)
	}
	cfg := Config{MaxDepth: 6, MaxFeatures: 3, Seed: 5}

	var idx []int
	for i, w := range weights {
		for ; w > 0; w-- {
			idx = append(idx, i)
		}
	}
	exact, err := FitClassifier(cols, y, idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	binned, err := FitClassifierBinned(hist.Bin(cols, 0), y, weights, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	row := make([]float64, len(cols))
	for i := range y {
		if weights[i] == 0 {
			continue
		}
		for f := range cols {
			row[f] = cols[f][i]
		}
		pe, pb := exact.PredictProba(row), binned.PredictProba(row)
		if pe != pb {
			t.Fatalf("in-bag row %d: exact %v, binned %v", i, pe, pb)
		}
	}
	for f := range cols {
		ie, ib := exact.Importance()[f], binned.Importance()[f]
		if math.Abs(ie-ib) > 1e-9*(1+math.Abs(ie)) {
			t.Errorf("importance[%d]: exact %v, binned %v", f, ie, ib)
		}
	}
}

// TestBinnedDeterministic asserts two identically configured binned
// fits (with and without a reused scratch) produce identical trees.
func TestBinnedDeterministic(t *testing.T) {
	cols, y := lowCardData(400, 5, 2)
	weights := make([]int, len(y))
	for i := range weights {
		weights[i] = 1 + i%2
	}
	bm := hist.Bin(cols, 0)
	cfg := Config{MaxDepth: 8, MaxFeatures: 2, Seed: 9}

	a, err := FitClassifierBinned(bm, y, weights, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewHistScratch()
	b1, err := FitClassifierBinned(bm, y, weights, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	// Reuse the scratch once more to catch stale-state bugs.
	b2, err := FitClassifierBinned(bm, y, weights, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}

	row := make([]float64, len(cols))
	for i := range y {
		for f := range cols {
			row[f] = cols[f][i]
		}
		pa, p1, p2 := a.PredictProba(row), b1.PredictProba(row), b2.PredictProba(row)
		if pa != p1 || pa != p2 {
			t.Fatalf("row %d: fits disagree: %v %v %v", i, pa, p1, p2)
		}
	}
}

// TestBinnedAllMissingFeature asserts a column with no finite values is
// never split on and does not break the fit.
func TestBinnedAllMissingFeature(t *testing.T) {
	n := 100
	nan := math.NaN()
	allMiss := make([]float64, n)
	signal := make([]float64, n)
	y := make([]int, n)
	weights := make([]int, n)
	for i := range signal {
		allMiss[i] = nan
		signal[i] = float64(i % 5)
		if i%5 >= 3 {
			y[i] = 1
		}
		weights[i] = 1
	}
	bm := hist.Bin([][]float64{allMiss, signal}, 0)
	c, err := FitClassifierBinned(bm, y, weights, Config{MaxDepth: 4, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Importance()[0] != 0 {
		t.Errorf("all-missing feature has importance %v", c.Importance()[0])
	}
	if c.Importance()[1] == 0 {
		t.Errorf("signal feature unused")
	}
}
