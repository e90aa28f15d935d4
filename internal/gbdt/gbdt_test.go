package gbdt

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func blobs(n, noiseFeatures int, seed int64) (cols [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	signal := make([]float64, n)
	y = make([]int, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.5 {
			y[i] = 1
			signal[i] = 1.5 + rng.NormFloat64()
		} else {
			signal[i] = -1.5 + rng.NormFloat64()
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
	cols, y := blobs(500, 2, 1)
	m, err := Fit(cols, y, Config{NumRounds: 30, MaxDepth: 3, Eta: 0.3, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTrees() != 30 || m.NumFeatures() != 3 {
		t.Fatalf("shape = (%d, %d)", m.NumTrees(), m.NumFeatures())
	}
	if p := m.PredictProba([]float64{2.5, 0, 0}); p < 0.85 {
		t.Errorf("prob(positive) = %v, want > 0.85", p)
	}
	if p := m.PredictProba([]float64{-2.5, 0, 0}); p > 0.15 {
		t.Errorf("prob(negative) = %v, want < 0.15", p)
	}
}

func TestTrainingAccuracy(t *testing.T) {
	cols, y := blobs(400, 3, 2)
	m, err := Fit(cols, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 4)
	correct := 0
	for i := range y {
		for f := range cols {
			x[f] = cols[f][i]
		}
		pred := 0
		if m.PredictProba(x) >= 0.5 {
			pred = 1
		}
		if pred == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(y)); acc < 0.9 {
		t.Errorf("training accuracy = %v, want >= 0.9", acc)
	}
}

func TestXORWithDepth2(t *testing.T) {
	// Boosting with depth-2 trees solves XOR, which a single greedy
	// shallow tree cannot — a sanity check that the gain machinery and
	// margin updates interact correctly.
	rng := rand.New(rand.NewSource(3))
	n := 600
	a := make([]float64, n)
	b := make([]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a[i] = rng.Float64()*2 - 1
		b[i] = rng.Float64()*2 - 1
		if (a[i] > 0) != (b[i] > 0) {
			y[i] = 1
		}
	}
	m, err := Fit([][]float64{a, b}, y, Config{NumRounds: 120, MaxDepth: 2, Eta: 0.3, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	x := make([]float64, 2)
	for i := 0; i < n; i++ {
		x[0], x[1] = a[i], b[i]
		pred := 0
		if m.PredictProba(x) >= 0.5 {
			pred = 1
		}
		if pred == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.9 {
		t.Errorf("XOR accuracy = %v, want >= 0.9", acc)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, DefaultConfig()); !errors.Is(err, ErrNoData) {
		t.Errorf("empty error = %v", err)
	}
	if _, err := Fit([][]float64{{1, 2}}, []int{0}, DefaultConfig()); err == nil {
		t.Error("shape mismatch should fail")
	}
	if _, err := Fit([][]float64{{1}}, []int{0}, Config{NumRounds: 0}); err == nil {
		t.Error("NumRounds=0 should fail")
	}
}

func TestGainImportanceFindsSignal(t *testing.T) {
	cols, y := blobs(500, 4, 4)
	m, err := Fit(cols, y, Config{NumRounds: 25, MaxDepth: 3, Eta: 0.3, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	gain, err := m.GainImportance()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range gain {
		if v < 0 {
			t.Errorf("negative gain %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("gain sum = %v, want 1", sum)
	}
	for j := 1; j < len(gain); j++ {
		if gain[0] <= gain[j] {
			t.Errorf("signal gain %v should exceed noise[%d] %v", gain[0], j, gain[j])
		}
	}
	w, err := m.WeightImportance()
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < len(w); j++ {
		if w[0] < w[j] {
			t.Errorf("signal splits %d should be >= noise[%d] %d", w[0], j, w[j])
		}
	}
}

func TestNotFitted(t *testing.T) {
	var m Model
	if _, err := m.GainImportance(); !errors.Is(err, ErrNotFitted) {
		t.Errorf("GainImportance error = %v", err)
	}
	if _, err := m.WeightImportance(); !errors.Is(err, ErrNotFitted) {
		t.Errorf("WeightImportance error = %v", err)
	}
}

func TestSingleClassBase(t *testing.T) {
	cols := [][]float64{{1, 2, 3, 4}}
	y := []int{0, 0, 0, 0}
	m, err := Fit(cols, y, Config{NumRounds: 5, MaxDepth: 2, Eta: 0.3, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p := m.PredictProba([]float64{2}); p > 0.2 {
		t.Errorf("all-negative prob = %v, want small", p)
	}
}

func TestGammaSuppressesWeakSplits(t *testing.T) {
	// Pure-noise data: with a large gamma, no split should clear the
	// bar, so all trees are single leaves and importance is zero.
	rng := rand.New(rand.NewSource(5))
	n := 200
	noise := make([]float64, n)
	y := make([]int, n)
	for i := range noise {
		noise[i] = rng.NormFloat64()
		if rng.Float64() < 0.5 {
			y[i] = 1
		}
	}
	m, err := Fit([][]float64{noise}, y, Config{NumRounds: 10, MaxDepth: 3, Eta: 0.3, Lambda: 1, Gamma: 50})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := m.WeightImportance()
	if w[0] != 0 {
		t.Errorf("gamma=50 should prevent noise splits, got %d", w[0])
	}
}

func TestMinChildWeight(t *testing.T) {
	// With an enormous MinChildWeight no split is feasible.
	cols, y := blobs(100, 0, 6)
	m, err := Fit(cols, y, Config{NumRounds: 5, MaxDepth: 3, Eta: 0.3, Lambda: 1, MinChildWeight: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := m.WeightImportance()
	if w[0] != 0 {
		t.Errorf("huge MinChildWeight should prevent splits, got %d", w[0])
	}
}

func TestSplitGainProperties(t *testing.T) {
	// A perfectly balanced split of opposite gradients has high gain;
	// splitting identical halves has zero gain.
	if g := splitGain(-5, 2, 5, 2, 1); g <= 0 {
		t.Errorf("opposite-gradient split gain = %v, want > 0", g)
	}
	if g := splitGain(3, 2, 3, 2, 1); g > 1e-9 {
		t.Errorf("identical-half split gain = %v, want ~0", g)
	}
}

func TestDeterminism(t *testing.T) {
	cols, y := blobs(300, 2, 7)
	cfg := Config{NumRounds: 10, MaxDepth: 3, Eta: 0.3, Lambda: 1}
	a, err := Fit(cols, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(cols, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.5, -0.2, 0.1}
	if a.PredictProba(x) != b.PredictProba(x) {
		t.Error("GBDT fit should be deterministic")
	}
}

func BenchmarkFit(b *testing.B) {
	cols, y := blobs(1000, 9, 8)
	cfg := Config{NumRounds: 50, MaxDepth: 4, Eta: 0.3, Lambda: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(cols, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
