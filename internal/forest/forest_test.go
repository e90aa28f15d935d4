package forest

import (
	"errors"
	"math/rand"
	"testing"
)

// blobs builds a linearly separable two-cluster dataset with one
// informative feature and optional noise features.
func blobs(n, noiseFeatures int, seed int64) (cols [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	signal := make([]float64, n)
	y = make([]int, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.5 {
			y[i] = 1
			signal[i] = 2 + rng.NormFloat64()
		} else {
			signal[i] = -2 + rng.NormFloat64()
		}
	}
	cols = [][]float64{signal}
	for f := 0; f < noiseFeatures; f++ {
		noise := make([]float64, n)
		for i := range noise {
			noise[i] = rng.NormFloat64()
		}
		cols = append(cols, noise)
	}
	return cols, y
}

func TestFitAndPredict(t *testing.T) {
	cols, y := blobs(400, 2, 1)
	f, err := Fit(cols, y, Config{NumTrees: 20, MaxDepth: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 20 || f.NumFeatures() != 3 {
		t.Fatalf("shape = (%d trees, %d features)", f.NumTrees(), f.NumFeatures())
	}
	if p := f.PredictProba([]float64{3, 0, 0}); p < 0.8 {
		t.Errorf("PredictProba(positive cluster) = %v, want > 0.8", p)
	}
	if p := f.PredictProba([]float64{-3, 0, 0}); p > 0.2 {
		t.Errorf("PredictProba(negative cluster) = %v, want < 0.2", p)
	}
	if f.PredictProba([]float64{3, 0, 0}) < 0.5 {
		t.Error("positive cluster should score at or above 0.5")
	}
	if f.PredictProba([]float64{-3, 0, 0}) >= 0.5 {
		t.Error("negative cluster should score below 0.5")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, Config{NumTrees: 5}); !errors.Is(err, ErrNoData) {
		t.Errorf("empty fit error = %v", err)
	}
	if _, err := Fit([][]float64{{1, 2}}, []int{0}, Config{NumTrees: 5}); err == nil {
		t.Error("shape mismatch should fail")
	}
	if _, err := Fit([][]float64{{1}}, []int{0}, Config{NumTrees: 0}); err == nil {
		t.Error("NumTrees=0 should fail")
	}
}

func TestDeterminism(t *testing.T) {
	cols, y := blobs(300, 3, 2)
	cfg := Config{NumTrees: 10, MaxDepth: 5, Seed: 99, Workers: 4}
	a, err := Fit(cols, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(cols, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 4)
	for trial := 0; trial < 50; trial++ {
		for j := range x {
			x[j] = rng.NormFloat64() * 3
		}
		if a.PredictProba(x) != b.PredictProba(x) {
			t.Fatal("same seed should give identical forests regardless of worker count")
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	// Serial and parallel fits must be bit-identical: bootstraps and
	// tree seeds are drawn up front from one RNG.
	cols, y := blobs(300, 3, 6)
	serial, err := Fit(cols, y, Config{NumTrees: 12, MaxDepth: 6, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fit(cols, y, Config{NumTrees: 12, MaxDepth: 6, Seed: 11, Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	impS, err := serial.ImpurityImportance()
	if err != nil {
		t.Fatal(err)
	}
	impP, err := parallel.ImpurityImportance()
	if err != nil {
		t.Fatal(err)
	}
	for f := range impS {
		if impS[f] != impP[f] {
			t.Fatalf("importance[%d]: serial %v != parallel %v", f, impS[f], impP[f])
		}
	}
	probS, probP := predictRows(serial, cols), predictRows(parallel, cols)
	for i := range probS {
		if probS[i] != probP[i] {
			t.Fatalf("prob[%d]: serial %v != parallel %v", i, probS[i], probP[i])
		}
	}
}

// predictRows scores every row of column-major data through the
// row-wise PredictProba.
func predictRows(f *Forest, cols [][]float64) []float64 {
	out := make([]float64, len(cols[0]))
	x := make([]float64, len(cols))
	for i := range out {
		for j := range cols {
			x[j] = cols[j][i]
		}
		out[i] = f.PredictProba(x)
	}
	return out
}

func TestImpurityImportanceFindsSignal(t *testing.T) {
	cols, y := blobs(500, 4, 5)
	f, err := Fit(cols, y, Config{NumTrees: 30, MaxDepth: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	imp, err := f.ImpurityImportance()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range imp {
		if v < 0 {
			t.Errorf("negative impurity importance %v", v)
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("importance sum = %v, want 1", sum)
	}
	for j := 1; j < len(imp); j++ {
		if imp[0] <= imp[j] {
			t.Errorf("signal importance %v should exceed noise[%d] %v", imp[0], j, imp[j])
		}
	}
}

func TestNotFitted(t *testing.T) {
	var f Forest
	if _, err := f.ImpurityImportance(); !errors.Is(err, ErrNotFitted) {
		t.Errorf("ImpurityImportance error = %v", err)
	}
}

func TestSingleClassData(t *testing.T) {
	// All-negative labels: forest must fit and predict ~0 everywhere.
	cols := [][]float64{{1, 2, 3, 4, 5, 6}}
	y := []int{0, 0, 0, 0, 0, 0}
	f, err := Fit(cols, y, Config{NumTrees: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if p := f.PredictProba([]float64{3}); p != 0 {
		t.Errorf("all-negative forest prob = %v, want 0", p)
	}
}

func BenchmarkFit100Trees(b *testing.B) {
	cols, y := blobs(1000, 9, 10)
	cfg := Config{NumTrees: 100, MaxDepth: 13, Seed: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(cols, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
