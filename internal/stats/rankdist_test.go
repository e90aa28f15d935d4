package stats

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKendallTauDistance(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want int
	}{
		{"identical", []float64{1, 2, 3}, []float64{1, 2, 3}, 0},
		{"reversed", []float64{1, 2, 3}, []float64{3, 2, 1}, 3},
		{"one swap", []float64{1, 2, 3}, []float64{2, 1, 3}, 1},
		{"empty", nil, nil, 0},
		{"single", []float64{1}, []float64{1}, 0},
		// A tie in one ranking but an order in the other is discordant.
		{"tie vs order", []float64{1, 1}, []float64{1, 2}, 1},
		{"tie vs tie", []float64{1, 1}, []float64{2, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := KendallTauDistance(tt.a, tt.b)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("KendallTauDistance = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestKendallTauDistanceMismatch(t *testing.T) {
	if _, err := KendallTauDistance([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("error = %v, want ErrLengthMismatch", err)
	}
}

func TestKendallTauSymmetry(t *testing.T) {
	// Property: D(a, b) == D(b, a), and 0 <= D <= n(n-1)/2.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		a := rng.Perm(n)
		b := rng.Perm(n)
		fa := make([]float64, n)
		fb := make([]float64, n)
		for i := range a {
			fa[i] = float64(a[i])
			fb[i] = float64(b[i])
		}
		dab, _ := KendallTauDistance(fa, fb)
		dba, _ := KendallTauDistance(fb, fa)
		return dab == dba && dab >= 0 && dab <= MaxKendallTauDistance(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKendallTauTriangleInequality(t *testing.T) {
	// Property: D is a metric on permutations: D(a,c) <= D(a,b) + D(b,c).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(10)
		mk := func() []float64 {
			p := rng.Perm(n)
			f := make([]float64, n)
			for i := range p {
				f[i] = float64(p[i])
			}
			return f
		}
		a, b, c := mk(), mk(), mk()
		dab, _ := KendallTauDistance(a, b)
		dbc, _ := KendallTauDistance(b, c)
		dac, _ := KendallTauDistance(a, c)
		if dac > dab+dbc {
			t.Fatalf("triangle inequality violated: D(a,c)=%d > D(a,b)+D(b,c)=%d", dac, dab+dbc)
		}
	}
}

func TestMaxKendallTauDistance(t *testing.T) {
	tests := []struct{ n, want int }{{0, 0}, {1, 0}, {2, 1}, {3, 3}, {5, 10}}
	for _, tt := range tests {
		if got := MaxKendallTauDistance(tt.n); got != tt.want {
			t.Errorf("MaxKendallTauDistance(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestScoresToRanks(t *testing.T) {
	// Highest score gets rank 1.
	ranks := ScoresToRanks([]float64{0.1, 0.9, 0.5})
	want := []float64{3, 1, 2}
	for i := range ranks {
		if ranks[i] != want[i] {
			t.Errorf("ScoresToRanks[%d] = %v, want %v", i, ranks[i], want[i])
		}
	}
}

func TestScoresToRanksTies(t *testing.T) {
	ranks := ScoresToRanks([]float64{0.5, 0.5, 0.1})
	if ranks[0] != 1.5 || ranks[1] != 1.5 || ranks[2] != 3 {
		t.Errorf("ScoresToRanks with ties = %v, want [1.5 1.5 3]", ranks)
	}
}

func TestMeanRanks(t *testing.T) {
	got, err := MeanRanks([][]float64{{1, 2, 3}, {3, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 2 {
			t.Errorf("MeanRanks[%d] = %v, want 2", i, v)
		}
	}
	if _, err := MeanRanks(nil); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("MeanRanks(nil) error = %v", err)
	}
	if _, err := MeanRanks([][]float64{{1}, {1, 2}}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("MeanRanks(mismatch) error = %v", err)
	}
}

func TestArgsort(t *testing.T) {
	keys := []float64{3, 1, 2}
	asc := ArgsortAscending(keys)
	if asc[0] != 1 || asc[1] != 2 || asc[2] != 0 {
		t.Errorf("ArgsortAscending = %v", asc)
	}
}

func TestArgsortStability(t *testing.T) {
	keys := []float64{1, 1, 1}
	asc := ArgsortAscending(keys)
	for i, v := range asc {
		if v != i {
			t.Errorf("ArgsortAscending not stable: %v", asc)
			break
		}
	}
}

func TestArgsortIsPermutation(t *testing.T) {
	f := func(raw []float64) bool {
		for i, v := range raw {
			if v != v { // NaN breaks ordering; exclude
				raw[i] = 0
			}
		}
		idx := ArgsortAscending(raw)
		seen := make(map[int]bool, len(idx))
		for _, i := range idx {
			if i < 0 || i >= len(raw) || seen[i] {
				return false
			}
			seen[i] = true
		}
		for i := 1; i < len(idx); i++ {
			if raw[idx[i]] < raw[idx[i-1]] {
				return false
			}
		}
		return len(idx) == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMedianRanks(t *testing.T) {
	got, err := MedianRanks([][]float64{{1, 2, 3}, {3, 2, 1}, {1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MedianRanks[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := MedianRanks(nil); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("MedianRanks(nil) error = %v", err)
	}
	if _, err := MedianRanks([][]float64{{1}, {1, 2}}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("MedianRanks(mismatch) error = %v", err)
	}
}

func TestMedianRanksRobustToOneOutlier(t *testing.T) {
	// Four agreeing rankings plus one reversed: the median ignores the
	// outlier entirely.
	agree := []float64{1, 2, 3, 4}
	reversed := []float64{4, 3, 2, 1}
	got, err := MedianRanks([][]float64{agree, agree, agree, agree, reversed})
	if err != nil {
		t.Fatal(err)
	}
	for i := range agree {
		if got[i] != agree[i] {
			t.Errorf("median[%d] = %v, want %v", i, got[i], agree[i])
		}
	}
}

func TestMinRanks(t *testing.T) {
	got, err := MinRanks([][]float64{{1, 3, 2}, {2, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MinRanks[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := MinRanks(nil); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("MinRanks(nil) error = %v", err)
	}
	if _, err := MinRanks([][]float64{{1}, {1, 2}}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("MinRanks(mismatch) error = %v", err)
	}
}
