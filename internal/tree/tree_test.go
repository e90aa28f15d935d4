package tree

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hist"
)

// fitFunc grows a tree the way FitClassifier does: idx selects the
// training rows (nil means all), and a repeated row counts repeatedly.
type fitFunc func(cols [][]float64, y []int, idx []int, cfg Config) (*Classifier, error)

// growers pairs the exact reference with the production grower, so the
// behaviour tests hold for both.
var growers = []struct {
	name string
	fit  fitFunc
}{
	{"exact", FitClassifier},
	{"binned", fitBinned},
}

// fitBinned is FitClassifier's contract on the production path: bin
// the columns with hist.Bin, express idx as per-row weights, and grow
// with FitClassifierBinned.
func fitBinned(cols [][]float64, y []int, idx []int, cfg Config) (*Classifier, error) {
	weights := make([]int, len(y))
	if idx == nil {
		for i := range weights {
			weights[i] = 1
		}
	}
	for _, i := range idx {
		weights[i]++
	}
	return FitClassifierBinned(hist.Bin(cols, 0), y, weights, cfg, nil)
}

// eachGrower runs test as one subtest per grower.
func eachGrower(t *testing.T, test func(t *testing.T, fit fitFunc)) {
	t.Helper()
	for _, g := range growers {
		t.Run(g.name, func(t *testing.T) { test(t, g.fit) })
	}
}

// xorData builds a 2-feature XOR-like dataset that a depth-1 stump
// cannot solve but a depth-2 tree can.
func xorData(n int, seed int64) (cols [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	a := make([]float64, n)
	b := make([]float64, n)
	y = make([]int, n)
	for i := 0; i < n; i++ {
		a[i] = rng.Float64()
		b[i] = rng.Float64()
		if (a[i] > 0.5) != (b[i] > 0.5) {
			y[i] = 1
		}
	}
	return [][]float64{a, b}, y
}

func TestFitClassifierSimpleSplit(t *testing.T) {
	eachGrower(t, func(t *testing.T, fit fitFunc) {
		// One perfectly separating feature.
		cols := [][]float64{{1, 2, 3, 10, 11, 12}}
		y := []int{0, 0, 0, 1, 1, 1}
		c, err := fit(cols, y, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if p := c.PredictProba([]float64{2}); p != 0 {
			t.Errorf("PredictProba(2) = %v, want 0", p)
		}
		if p := c.PredictProba([]float64{11}); p != 1 {
			t.Errorf("PredictProba(11) = %v, want 1", p)
		}
		// Threshold between 3 and 10: midpoint semantics.
		if p := c.PredictProba([]float64{6}); p != 0 {
			t.Errorf("PredictProba(6) = %v, want 0 (midpoint 6.5)", p)
		}
		if p := c.PredictProba([]float64{7}); p != 1 {
			t.Errorf("PredictProba(7) = %v, want 1", p)
		}
	})
}

func TestFitClassifierXOR(t *testing.T) {
	eachGrower(t, func(t *testing.T, fit fitFunc) {
		// An unlimited-depth tree memorizes any dataset with distinct
		// points, including XOR, which greedy shallow trees cannot solve.
		cols, y := xorData(400, 1)
		c, err := fit(cols, y, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		correct := 0
		x := make([]float64, 2)
		for i := range y {
			x[0], x[1] = cols[0][i], cols[1][i]
			pred := 0
			if c.PredictProba(x) >= 0.5 {
				pred = 1
			}
			if pred == y[i] {
				correct++
			}
		}
		if acc := float64(correct) / float64(len(y)); acc < 0.99 {
			t.Errorf("XOR training accuracy = %v, want >= 0.99", acc)
		}
	})
}

func TestMaxDepthRespected(t *testing.T) {
	eachGrower(t, func(t *testing.T, fit fitFunc) {
		cols, y := xorData(500, 2)
		for _, depth := range []int{1, 2, 3, 5} {
			c, err := fit(cols, y, nil, Config{MaxDepth: depth})
			if err != nil {
				t.Fatal(err)
			}
			if c.Depth() > depth {
				t.Errorf("depth = %d, want <= %d", c.Depth(), depth)
			}
		}
	})
}

func TestMinLeafRespected(t *testing.T) {
	eachGrower(t, func(t *testing.T, fit fitFunc) {
		cols, y := xorData(300, 3)
		c, err := fit(cols, y, nil, Config{MinLeafSamples: 30})
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range c.nodes {
			if nd.feature < 0 && nd.samples < 30 {
				t.Errorf("leaf with %d samples, want >= 30", nd.samples)
			}
		}
	})
}

func TestPureNodeIsLeaf(t *testing.T) {
	eachGrower(t, func(t *testing.T, fit fitFunc) {
		cols := [][]float64{{1, 2, 3}}
		y := []int{1, 1, 1}
		c, err := fit(cols, y, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if c.NumNodes() != 1 {
			t.Errorf("pure data should produce a single leaf, got %d nodes", c.NumNodes())
		}
		if p := c.PredictProba([]float64{99}); p != 1 {
			t.Errorf("pure-positive leaf prob = %v", p)
		}
	})
}

func TestConstantFeatureNoSplit(t *testing.T) {
	eachGrower(t, func(t *testing.T, fit fitFunc) {
		cols := [][]float64{{5, 5, 5, 5}}
		y := []int{0, 1, 0, 1}
		c, err := fit(cols, y, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if c.NumNodes() != 1 {
			t.Errorf("constant feature should not split, got %d nodes", c.NumNodes())
		}
		if p := c.PredictProba([]float64{5}); p != 0.5 {
			t.Errorf("prob = %v, want 0.5", p)
		}
	})
}

func TestFitErrors(t *testing.T) {
	eachGrower(t, func(t *testing.T, fit fitFunc) {
		if _, err := fit(nil, []int{0}, nil, Config{}); !errors.Is(err, ErrNoData) {
			t.Errorf("no columns error = %v", err)
		}
		if _, err := fit([][]float64{{1, 2}}, []int{0}, nil, Config{}); !errors.Is(err, ErrShapeMismatch) {
			t.Errorf("shape error = %v", err)
		}
		if _, err := fit([][]float64{{1}}, []int{0}, []int{}, Config{}); !errors.Is(err, ErrNoData) {
			t.Errorf("empty idx error = %v", err)
		}
	})
}

func TestBootstrapIndices(t *testing.T) {
	eachGrower(t, func(t *testing.T, fit fitFunc) {
		// Fit on a bootstrap that only contains positive rows.
		cols := [][]float64{{1, 2, 3, 4}}
		y := []int{0, 0, 1, 1}
		c, err := fit(cols, y, []int{2, 3, 2, 3}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if p := c.PredictProba([]float64{1}); p != 1 {
			t.Errorf("bootstrap-of-positives prob = %v, want 1", p)
		}
	})
}

func TestImportanceIdentifiesSignal(t *testing.T) {
	eachGrower(t, func(t *testing.T, fit fitFunc) {
		// Feature 0 is pure signal; feature 1 is noise.
		rng := rand.New(rand.NewSource(4))
		n := 500
		signal := make([]float64, n)
		noise := make([]float64, n)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			signal[i] = rng.Float64()
			noise[i] = rng.Float64()
			if signal[i] > 0.5 {
				y[i] = 1
			}
		}
		c, err := fit([][]float64{signal, noise}, y, nil, Config{MaxDepth: 5})
		if err != nil {
			t.Fatal(err)
		}
		imp := c.Importance()
		if imp[0] <= imp[1] {
			t.Errorf("importance(signal)=%v should exceed importance(noise)=%v", imp[0], imp[1])
		}
		// Importance must be a copy.
		imp[0] = -1
		if c.Importance()[0] == -1 {
			t.Error("Importance should return a copy")
		}
	})
}

func TestDeterminism(t *testing.T) {
	eachGrower(t, func(t *testing.T, fit fitFunc) {
		cols, y := xorData(300, 5)
		cfg := Config{MaxDepth: 6, MaxFeatures: 1, Seed: 42}
		a, err := fit(cols, y, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fit(cols, y, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.NumNodes() != b.NumNodes() {
			t.Fatalf("node counts differ: %d vs %d", a.NumNodes(), b.NumNodes())
		}
		x := make([]float64, 2)
		rng := rand.New(rand.NewSource(6))
		for trial := 0; trial < 100; trial++ {
			x[0], x[1] = rng.Float64(), rng.Float64()
			if a.PredictProba(x) != b.PredictProba(x) {
				t.Fatal("same seed should produce identical trees")
			}
		}
	})
}

func TestPredictionsAreValidProbabilities(t *testing.T) {
	eachGrower(t, func(t *testing.T, fit fitFunc) {
		cols, y := xorData(300, 7)
		c, err := fit(cols, y, nil, Config{MaxDepth: 8})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		x := make([]float64, 2)
		for trial := 0; trial < 200; trial++ {
			x[0], x[1] = rng.Float64()*2-0.5, rng.Float64()*2-0.5
			p := c.PredictProba(x)
			if p < 0 || p > 1 {
				t.Fatalf("probability out of range: %v", p)
			}
		}
	})
}

func TestAdjacentFloatThresholds(t *testing.T) {
	eachGrower(t, func(t *testing.T, fit fitFunc) {
		// Columns whose sorted neighbors are adjacent floats force the
		// midpoint (v+next)/2 to round to next itself; the fit must then
		// cut at v so the partition routes rows exactly as the split scan
		// counted them. Before that fallback, descendant weight totals
		// drifted from the rows actually present, and leaf "probabilities"
		// escaped [0, 1].
		rng := rand.New(rand.NewSource(5))
		const n = 600
		base := []float64{0.1, 1.0 / 3.0, 0.7}
		cols := make([][]float64, 4)
		for f := range cols {
			c := make([]float64, n)
			for i := range c {
				v := base[rng.Intn(len(base))]
				for k := rng.Intn(3); k > 0; k-- {
					v = math.Nextafter(v, 2)
				}
				c[i] = v
			}
			cols[f] = c
		}
		y := make([]int, n)
		for i := range y {
			if rng.Float64() < 0.4 {
				y[i] = 1
			}
		}
		// Bootstrap duplicates exercise the weighted path too.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		c, err := fit(cols, y, idx, Config{MaxDepth: 10, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if c.NumNodes() < 3 {
			t.Fatalf("no splits on adjacent-float data: %d nodes", c.NumNodes())
		}
		probs := make([]float64, n)
		c.PredictProbaBatch(cols, probs)
		for i, p := range probs {
			if p < 0 || p > 1 {
				t.Fatalf("row %d probability out of range: %v", i, p)
			}
		}
	})
}

func TestPredictProbaBatchMatchesSingle(t *testing.T) {
	eachGrower(t, func(t *testing.T, fit fitFunc) {
		cols, y := xorData(400, 12)
		c, err := fit(cols, y, nil, Config{MaxDepth: 8})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(y))
		c.PredictProbaBatch(cols, out)
		x := make([]float64, 2)
		for i := range out {
			x[0], x[1] = cols[0][i], cols[1][i]
			if want := c.PredictProba(x); out[i] != want {
				t.Fatalf("row %d: batch %v != single %v", i, out[i], want)
			}
		}

		// The additive variant accumulates on top of existing content.
		acc := make([]float64, len(y))
		c.PredictProbaBatchAdd(cols, acc)
		c.PredictProbaBatchAdd(cols, acc)
		for i := range acc {
			if acc[i] != 2*out[i] {
				t.Fatalf("row %d: accumulated %v != 2*%v", i, acc[i], out[i])
			}
		}
	})
}

func TestGini(t *testing.T) {
	tests := []struct {
		pos, n int
		want   float64
	}{
		{0, 10, 0}, {10, 10, 0}, {5, 10, 0.5}, {0, 0, 0},
	}
	for _, tt := range tests {
		if got := gini(tt.pos, tt.n); got != tt.want {
			t.Errorf("gini(%d, %d) = %v, want %v", tt.pos, tt.n, got, tt.want)
		}
	}
}

func BenchmarkFitClassifier(b *testing.B) {
	cols, y := xorData(2000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitClassifier(cols, y, nil, Config{MaxDepth: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictProba(b *testing.B) {
	cols, y := xorData(2000, 11)
	c, err := FitClassifier(cols, y, nil, Config{MaxDepth: 10})
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{0.3, 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PredictProba(x)
	}
}
