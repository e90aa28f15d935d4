package gbdt

import (
	"math"
	"testing"
)

// missingInformative builds data where a NaN in feature 0 marks the
// positive class and feature 1 is noise.
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
	cols, y := missingInformative(200)
	m, err := Fit(cols, y, Config{NumRounds: 20, MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	pMissing := m.PredictProba([]float64{math.NaN(), 5})
	pPresent := m.PredictProba([]float64{3, 5})
	if pMissing < 0.9 {
		t.Errorf("P(pos | feature missing) = %v, want >= 0.9", pMissing)
	}
	if pPresent > 0.1 {
		t.Errorf("P(pos | feature present) = %v, want <= 0.1", pPresent)
	}
}

func TestFitAllMissingColumnNeverSplit(t *testing.T) {
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
	m, err := Fit(cols, y, Config{NumRounds: 10, MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	gain, err := m.GainImportance()
	if err != nil {
		t.Fatal(err)
	}
	if gain[0] != 0 {
		t.Errorf("all-NaN column gain importance = %v, want 0", gain[0])
	}
	if gain[1] == 0 {
		t.Error("informative column was never split on")
	}
	// Margins must stay finite in the presence of the NaN column.
	for i := 0; i < n; i++ {
		if v := m.PredictMargin([]float64{cols[0][i], cols[1][i]}); v-v != 0 {
			t.Fatalf("margin[%d] = %v, want finite", i, v)
		}
	}
}

func TestFitPartialMissingBeatsBaseline(t *testing.T) {
	// A feature whose finite values separate the classes perfectly but
	// with 20% of cells missing at random must still dominate training,
	// with missing rows routed to whichever side fits them best.
	n := 300
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	y := make([]int, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			y[i] = 1
			cols[0][i] = 10 + float64(i%9)
		} else {
			cols[0][i] = float64(i % 9)
		}
		if i%5 == 0 {
			cols[0][i] = math.NaN()
		}
		cols[1][i] = float64((i * 11) % 23)
	}
	m, err := Fit(cols, y, Config{NumRounds: 20, MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < n; i++ {
		p := m.PredictProba([]float64{cols[0][i], cols[1][i]})
		if (p >= 0.5) == (y[i] == 1) {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.9 {
		t.Errorf("accuracy with 20%% missing = %v, want >= 0.9", acc)
	}
}
