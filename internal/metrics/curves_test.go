package metrics

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestROCPerfectClassifier(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []int{1, 1, 0, 0}
	auc, err := AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 1 {
		t.Errorf("perfect AUC = %v, want 1", auc)
	}
}

func TestROCInvertedClassifier(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []int{1, 1, 0, 0}
	auc, err := AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 0 {
		t.Errorf("inverted AUC = %v, want 0", auc)
	}
}

func TestROCRandomScoresNearHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 4000
	scores := make([]float64, n)
	labels := make([]int, n)
	for i := range scores {
		scores[i] = rng.Float64()
		if rng.Float64() < 0.3 {
			labels[i] = 1
		}
	}
	auc, err := AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 0.03 {
		t.Errorf("random AUC = %v, want ~0.5", auc)
	}
}

func TestROCEndpoints(t *testing.T) {
	curve, err := ROC([]float64{0.3, 0.7, 0.5}, []int{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	first, last := curve[0], curve[len(curve)-1]
	if first.TPR != 0 || first.FPR != 0 {
		t.Errorf("first point = %+v, want origin", first)
	}
	if last.TPR != 1 || last.FPR != 1 {
		t.Errorf("last point = %+v, want (1, 1)", last)
	}
	// Monotone nondecreasing in both axes.
	for i := 1; i < len(curve); i++ {
		if curve[i].TPR < curve[i-1].TPR || curve[i].FPR < curve[i-1].FPR {
			t.Fatalf("ROC not monotone at %d", i)
		}
	}
}

func TestROCTiedScores(t *testing.T) {
	// All scores tied: single step from (0,0) to (1,1); AUC 0.5.
	auc, err := AUC([]float64{0.5, 0.5, 0.5, 0.5}, []int{1, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if auc != 0.5 {
		t.Errorf("tied AUC = %v, want 0.5", auc)
	}
}

func TestROCErrors(t *testing.T) {
	if _, err := ROC(nil, nil); !errors.Is(err, ErrNoScores) {
		t.Errorf("empty error = %v", err)
	}
	if _, err := ROC([]float64{1}, []int{1, 0}); !errors.Is(err, ErrNoScores) {
		t.Errorf("mismatch error = %v", err)
	}
	if _, err := ROC([]float64{1, 2}, []int{1, 1}); !errors.Is(err, ErrCurveSingleClass) {
		t.Errorf("single-class error = %v", err)
	}
	if _, err := AUC([]float64{1, 2}, []int{0, 0}); !errors.Is(err, ErrCurveSingleClass) {
		t.Errorf("AUC single-class error = %v", err)
	}
}

func TestAUCInvariantToMonotoneTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 500
	scores := make([]float64, n)
	squashed := make([]float64, n)
	labels := make([]int, n)
	for i := range scores {
		scores[i] = rng.NormFloat64()
		squashed[i] = 1 / (1 + math.Exp(-scores[i]))
		if rng.Float64() < 0.4 {
			labels[i] = 1
		}
	}
	a, err := AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AUC(squashed, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("AUC changed under monotone transform: %v vs %v", a, b)
	}
}
