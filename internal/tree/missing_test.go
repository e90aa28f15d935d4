package tree

import (
	"math"
	"reflect"
	"testing"
)

// missingInformative builds a dataset where missingness itself carries
// the label: positives have a NaN value in feature 0, negatives are
// finite. Feature 1 is uninformative noise.
func missingInformative(n int) (cols [][]float64, y []int) {
	cols = [][]float64{make([]float64, n), make([]float64, n)}
	y = make([]int, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			y[i] = 1
			cols[0][i] = math.NaN()
		} else {
			cols[0][i] = float64(i % 17)
		}
		cols[1][i] = float64((i * 7) % 13)
	}
	return cols, y
}

func TestFitLearnsDefaultDirection(t *testing.T) {
	eachGrower(t, func(t *testing.T, fit fitFunc) {
		cols, y := missingInformative(200)
		c, err := fit(cols, y, nil, Config{MaxDepth: 3})
		if err != nil {
			t.Fatal(err)
		}
		pMissing := c.PredictProba([]float64{math.NaN(), 5})
		pPresent := c.PredictProba([]float64{3, 5})
		if pMissing < 0.9 {
			t.Errorf("P(pos | feature missing) = %v, want >= 0.9", pMissing)
		}
		if pPresent > 0.1 {
			t.Errorf("P(pos | feature present) = %v, want <= 0.1", pPresent)
		}
	})
}

func TestFitMissingOppositeDirection(t *testing.T) {
	eachGrower(t, func(t *testing.T, fit fitFunc) {
		// Same construction, labels flipped: NaN now marks negatives, so the
		// learned default direction must route missing to the negative leaf.
		cols, y := missingInformative(200)
		for i := range y {
			y[i] = 1 - y[i]
		}
		c, err := fit(cols, y, nil, Config{MaxDepth: 3})
		if err != nil {
			t.Fatal(err)
		}
		if p := c.PredictProba([]float64{math.NaN(), 5}); p > 0.1 {
			t.Errorf("P(pos | feature missing) = %v, want <= 0.1", p)
		}
	})
}

func TestFitAllMissingColumnNeverSplit(t *testing.T) {
	eachGrower(t, func(t *testing.T, fit fitFunc) {
		n := 100
		cols := [][]float64{make([]float64, n), make([]float64, n)}
		y := make([]int, n)
		for i := 0; i < n; i++ {
			cols[0][i] = math.NaN()
			cols[1][i] = float64(i)
			if i >= n/2 {
				y[i] = 1
			}
		}
		c, err := fit(cols, y, nil, Config{MaxDepth: 4})
		if err != nil {
			t.Fatal(err)
		}
		if imp := c.Importance(); imp[0] != 0 {
			t.Errorf("all-NaN column importance = %v, want 0", imp[0])
		}
		if c.NumNodes() < 3 {
			t.Errorf("tree did not split on the informative column at all")
		}
	})
}

func TestFitMissingDeterministic(t *testing.T) {
	eachGrower(t, func(t *testing.T, fit fitFunc) {
		cols, y := missingInformative(300)
		// Sprinkle partial missingness into the second feature too.
		for i := 0; i < 300; i += 7 {
			cols[1][i] = math.NaN()
		}
		cfg := Config{MaxDepth: 5, MaxFeatures: 1, Seed: 42}
		a, err := fit(cols, y, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fit(cols, y, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Export(), b.Export()) {
			t.Error("two fits with identical data, config, and seed differ")
		}
	})
}

func TestExportPreservesDefaultDirection(t *testing.T) {
	// Positives sit at low values with a third of them missing;
	// negatives at high values. The best split joins the missing mass to
	// the LEFT (low/positive) side, forcing a missing-left default.
	n := 200
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	y := make([]int, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			y[i] = 1
			cols[0][i] = float64(i % 9)
			if i%6 == 0 {
				cols[0][i] = math.NaN()
			}
		} else {
			cols[0][i] = 20 + float64(i%9)
		}
		cols[1][i] = float64((i * 7) % 13)
	}
	c, err := FitClassifier(cols, y, nil, Config{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p := c.PredictProba([]float64{math.NaN(), 5}); p < 0.9 {
		t.Errorf("P(pos | missing) = %v, want >= 0.9 via missing-left routing", p)
	}
	enc := c.Export()
	if enc.NFeatures != 2 || len(enc.DefaultLeft) != len(c.nodes) {
		t.Fatalf("encoding has %d features, %d DefaultLeft entries for %d nodes",
			enc.NFeatures, len(enc.DefaultLeft), len(c.nodes))
	}
	anyLeft := false
	for i, nd := range c.nodes {
		if enc.Feature[i] != nd.feature || enc.Threshold[i] != nd.threshold ||
			enc.Left[i] != nd.left || enc.Right[i] != nd.right ||
			enc.Prob[i] != nd.prob || enc.DefaultLeft[i] != nd.defaultLeft {
			t.Fatalf("node %d: encoded differently from %+v", i, nd)
		}
		anyLeft = anyLeft || nd.defaultLeft
	}
	// The informative-missing construction must have produced at least
	// one missing-left node for this test to mean anything.
	if !anyLeft {
		t.Error("no node learned a missing-left default; construction is broken")
	}
}
