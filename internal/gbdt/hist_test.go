package gbdt

import (
	"math"
	"math/rand"
	"testing"
)

// histData builds low-cardinality counter columns with NaN holes and a
// planted signal, SMART-like.
func histData(n int, seed int64) (cols [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	y = make([]int, n)
	cols = make([][]float64, 6)
	for f := range cols {
		cols[f] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.25 {
			y[i] = 1
		}
		for f := range cols {
			v := float64(rng.Intn(6))
			if y[i] == 1 && f < 3 {
				v += float64(rng.Intn(4))
			}
			if rng.Float64() < 0.04 {
				v = math.NaN()
			}
			cols[f][i] = v
		}
	}
	return cols, y
}

// TestHistDeterministic asserts two identically configured hist fits
// produce identical models.
func TestHistDeterministic(t *testing.T) {
	cols, y := histData(500, 1)
	cfg := Config{NumRounds: 10, MaxDepth: 4, Eta: 0.3, Lambda: 1}
	a, err := Fit(cols, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(cols, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		row := make([]float64, len(cols))
		for f := range cols {
			row[f] = cols[f][i]
		}
		if pa, pb := a.PredictProba(row), b.PredictProba(row); pa != pb {
			t.Fatalf("row %d: %v != %v", i, pa, pb)
		}
	}
}

// TestHistMatchesExactPredictions asserts Fit trains a model whose
// training-set probabilities track the exact reference closely on
// low-cardinality data: both paths consider the same candidate row
// partitions there, so only threshold placement (and therefore rare
// boundary routing) can differ.
func TestHistMatchesExactPredictions(t *testing.T) {
	cols, y := histData(800, 2)
	base := Config{NumRounds: 15, MaxDepth: 4, Eta: 0.3, Lambda: 1}
	exact, err := fitExact(cols, y, base)
	if err != nil {
		t.Fatal(err)
	}
	binned, err := Fit(cols, y, base)
	if err != nil {
		t.Fatal(err)
	}

	row := make([]float64, len(cols))
	var sumAbs, maxAbs float64
	for i := range y {
		for f := range cols {
			row[f] = cols[f][i]
		}
		d := math.Abs(exact.PredictProba(row) - binned.PredictProba(row))
		sumAbs += d
		if d > maxAbs {
			maxAbs = d
		}
	}
	if mean := sumAbs / float64(len(y)); mean > 0.01 {
		t.Errorf("mean |exact - hist| = %v, want <= 0.01 (max %v)", mean, maxAbs)
	}
}

// TestHistLearnsSignal asserts hist training reaches a high training
// accuracy on separable data.
func TestHistLearnsSignal(t *testing.T) {
	cols, y := histData(600, 3)
	m, err := Fit(cols, y, Config{NumRounds: 20, MaxDepth: 4, Eta: 0.3, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	row := make([]float64, len(cols))
	for i := range y {
		for f := range cols {
			row[f] = cols[f][i]
		}
		pred := 0
		if m.PredictProba(row) >= 0.5 {
			pred = 1
		}
		if pred == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(y)); acc < 0.8 {
		t.Errorf("training accuracy %v, want >= 0.8", acc)
	}
}

// TestHistGainImportanceFindsSignal asserts the hist path's gain
// accounting still ranks the informative features first.
func TestHistGainImportanceFindsSignal(t *testing.T) {
	cols, y := histData(800, 4)
	m, err := Fit(cols, y, Config{NumRounds: 15, MaxDepth: 4, Eta: 0.3, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	imp, err := m.GainImportance()
	if err != nil {
		t.Fatal(err)
	}
	var signal, noise float64
	for f, v := range imp {
		if f < 3 {
			signal += v
		} else {
			noise += v
		}
	}
	if signal <= noise {
		t.Errorf("signal importance %v not above noise %v", signal, noise)
	}
}
