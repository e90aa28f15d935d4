package forest

import (
	"math"
	"math/rand"
	"testing"
)

// histBlobs adds NaN holes and a low-cardinality counter column to the
// blobs data, so the binned path's missing bin and tied values are
// exercised.
func histBlobs(n int, seed int64) (cols [][]float64, y []int) {
	cols, y = blobs(n, 3, seed)
	rng := rand.New(rand.NewSource(seed + 100))
	counter := make([]float64, n)
	for i := range counter {
		counter[i] = float64(rng.Intn(5))
		if rng.Float64() < 0.05 {
			cols[1][i] = math.NaN()
		}
	}
	cols = append(cols, counter)
	return cols, y
}

// TestHistWorkerCountInvariance asserts the fit is bit-identical at any
// worker count on data with missing values and tied counters:
// bootstraps and tree seeds are pre-drawn, and each worker only reads
// the shared binned matrix.
func TestHistWorkerCountInvariance(t *testing.T) {
	cols, y := histBlobs(300, 6)
	var ref []float64
	var refImp []float64
	for _, workers := range []int{1, 4, 8} {
		f, err := Fit(cols, y, Config{
			NumTrees: 12, MaxDepth: 6, Seed: 11, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		probs := predictRows(f, cols)
		imp, err := f.ImpurityImportance()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refImp = probs, imp
			continue
		}
		for i := range probs {
			if probs[i] != ref[i] {
				t.Fatalf("workers=%d: prob[%d] = %v, want %v", workers, i, probs[i], ref[i])
			}
		}
		for j := range imp {
			if imp[j] != refImp[j] {
				t.Fatalf("workers=%d: importance[%d] = %v, want %v", workers, j, imp[j], refImp[j])
			}
		}
	}
}

// TestHistLearnsSignal asserts the binned forest separates the
// clusters despite missing values and a noise counter column.
func TestHistLearnsSignal(t *testing.T) {
	cols, y := histBlobs(400, 1)
	f, err := Fit(cols, y, Config{NumTrees: 20, MaxDepth: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p := f.PredictProba([]float64{3, 0, 0, 0, 2}); p < 0.8 {
		t.Errorf("PredictProba(positive cluster) = %v, want > 0.8", p)
	}
	if p := f.PredictProba([]float64{-3, 0, 0, 0, 2}); p > 0.2 {
		t.Errorf("PredictProba(negative cluster) = %v, want < 0.2", p)
	}
}
