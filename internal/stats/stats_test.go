package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"single", []float64{4}, 4},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1, -3, 3}, 0},
		{"fractions", []float64{0.5, 1.5, 2.5}, 1.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Mean(tt.in)
			if err != nil {
				t.Fatalf("Mean(%v) error: %v", tt.in, err)
			}
			if !almostEqual(got, tt.want, eps) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, err := Mean(nil); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("Mean(nil) error = %v, want ErrEmptyInput", err)
	}
}

func TestWelfordMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*7 + 3
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	mean, _ := Mean(xs)
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	wantVar := ss / float64(len(xs))
	if !almostEqual(w.Mean(), mean, 1e-9) {
		t.Errorf("Welford mean = %v, want %v", w.Mean(), mean)
	}
	if !almostEqual(w.Variance(), wantVar, 1e-7) {
		t.Errorf("Welford variance = %v, want %v", w.Variance(), wantVar)
	}
	if w.Count() != len(xs) {
		t.Errorf("Welford count = %d, want %d", w.Count(), len(xs))
	}
}

func TestWelfordZeroValue(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Error("zero-value Welford should report zeros")
	}
}

func TestMinMax(t *testing.T) {
	minV, maxV, err := MinMax([]float64{3, -2, 8, 0})
	if err != nil {
		t.Fatal(err)
	}
	if minV != -2 || maxV != 8 {
		t.Errorf("MinMax = (%v, %v), want (-2, 8)", minV, maxV)
	}
	if _, _, err := MinMax(nil); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("MinMax(nil) error = %v, want ErrEmptyInput", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, tt := range tests {
		got, err := Quantile(xs, tt.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tt.q, err)
		}
		if !almostEqual(got, tt.want, eps) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if _, err := Quantile(xs, 1.5); !errors.Is(err, ErrInvalidQuantile) {
		t.Errorf("Quantile(1.5) error = %v, want ErrInvalidQuantile", err)
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("Quantile(nil) error = %v, want ErrEmptyInput", err)
	}
	got, err := Quantile([]float64{42}, 0.99)
	if err != nil || got != 42 {
		t.Errorf("Quantile(single, .99) = (%v, %v), want (42, nil)", got, err)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	got, err := Quantile([]float64{0, 10}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 3, eps) {
		t.Errorf("Quantile = %v, want 3", got)
	}
}

func TestRanks(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want []float64
	}{
		{"distinct", []float64{30, 10, 20}, []float64{3, 1, 2}},
		{"ties", []float64{1, 2, 2, 3}, []float64{1, 2.5, 2.5, 4}},
		{"all tied", []float64{5, 5, 5}, []float64{2, 2, 2}},
		{"empty", nil, []float64{}},
		{"single", []float64{9}, []float64{1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Ranks(tt.in)
			if len(got) != len(tt.want) {
				t.Fatalf("Ranks len = %d, want %d", len(got), len(tt.want))
			}
			for i := range got {
				if !almostEqual(got[i], tt.want[i], eps) {
					t.Errorf("Ranks[%d] = %v, want %v", i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestRanksSumInvariant(t *testing.T) {
	// Property: fractional ranks always sum to n(n+1)/2 regardless of ties.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		// Map values into a small set to force ties.
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = math.Mod(math.Abs(v), 5)
		}
		ranks := Ranks(xs)
		sum := 0.0
		for _, r := range ranks {
			sum += r
		}
		n := float64(len(xs))
		return almostEqual(sum, n*(n+1)/2, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearson(t *testing.T) {
	tests := []struct {
		name    string
		xs, ys  []float64
		want    float64
		wantErr error
	}{
		{"perfect positive", []float64{1, 2, 3}, []float64{2, 4, 6}, 1, nil},
		{"perfect negative", []float64{1, 2, 3}, []float64{6, 4, 2}, -1, nil},
		{"constant x", []float64{1, 1, 1}, []float64{1, 2, 3}, 0, ErrZeroVariance},
		{"mismatch", []float64{1}, []float64{1, 2}, 0, ErrLengthMismatch},
		{"empty", nil, nil, 0, ErrEmptyInput},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Pearson(tt.xs, tt.ys)
			if tt.wantErr != nil {
				if !errors.Is(err, tt.wantErr) {
					t.Fatalf("error = %v, want %v", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got, tt.want, eps) {
				t.Errorf("Pearson = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPearsonKnownValue(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 1, 4, 3, 5}
	got, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0.8, 1e-12) {
		t.Errorf("Pearson = %v, want 0.8", got)
	}
}

func TestSpearmanMonotonic(t *testing.T) {
	// Spearman is 1 for any strictly increasing transform, even nonlinear.
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x)
	}
	got, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 1, eps) {
		t.Errorf("Spearman(exp) = %v, want 1", got)
	}
}

func TestSpearmanWithTies(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{10, 20, 20, 30}
	got, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 1, eps) {
		t.Errorf("Spearman(tied identical order) = %v, want 1", got)
	}
}

func TestPearsonBounds(t *testing.T) {
	// Property: |r| <= 1 for random non-degenerate input.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(100)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if r < -1-eps || r > 1+eps {
			t.Fatalf("Pearson out of bounds: %v", r)
		}
	}
}

func TestRolling(t *testing.T) {
	xs := []float64{5, 1, 3}
	got, err := Rolling(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Max != 5 || got[0].Min != 5 || got[0].Range != 0 {
		t.Errorf("Rolling[0] = %+v, want degenerate window of 5", got[0])
	}
	if got[1].Max != 5 || got[1].Min != 1 || got[1].Range != 4 {
		t.Errorf("Rolling[1] = %+v", got[1])
	}
	if !almostEqual(got[1].Mean, 3, eps) {
		t.Errorf("Rolling[1].Mean = %v, want 3", got[1].Mean)
	}
	if got[2].Max != 3 || got[2].Min != 1 {
		t.Errorf("Rolling[2] = %+v", got[2])
	}
	// WMA of window [1,3] with weights 1,2 = (1+6)/3.
	if !almostEqual(got[2].WMA, 7.0/3, eps) {
		t.Errorf("Rolling[2].WMA = %v, want %v", got[2].WMA, 7.0/3)
	}
}

func TestRollingInvariants(t *testing.T) {
	// Property: Min <= Mean <= Max and Min <= WMA <= Max in every window.
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
	}
	for _, window := range []int{1, 3, 7, 50} {
		rs, err := Rolling(xs, window)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if r.Mean < r.Min-eps || r.Mean > r.Max+eps {
				t.Fatalf("window %d pos %d: mean %v outside [%v, %v]", window, i, r.Mean, r.Min, r.Max)
			}
			if r.WMA < r.Min-eps || r.WMA > r.Max+eps {
				t.Fatalf("window %d pos %d: wma %v outside [%v, %v]", window, i, r.WMA, r.Min, r.Max)
			}
			if r.Range < -eps {
				t.Fatalf("window %d pos %d: negative range %v", window, i, r.Range)
			}
		}
	}
}

func TestQuantileMonotoneInQ(t *testing.T) {
	// Property: Quantile is nondecreasing in q and bounded by min/max.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		minV, maxV, _ := MinMax(xs)
		prev := minV
		for q := 0.0; q <= 1.0001; q += 0.05 {
			qq := math.Min(q, 1)
			v, err := Quantile(xs, qq)
			if err != nil {
				t.Fatal(err)
			}
			if v < prev-eps {
				t.Fatalf("quantile decreased at q=%v: %v < %v", qq, v, prev)
			}
			if v < minV-eps || v > maxV+eps {
				t.Fatalf("quantile %v outside [%v, %v]", v, minV, maxV)
			}
			prev = v
		}
	}
}

func TestSpearmanEqualsPearsonOnRanks(t *testing.T) {
	// Property: Spearman(x, y) == Pearson(rank(x), rank(y)) by
	// definition; cross-check the two public paths.
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(100)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(10)) // ties included
			ys[i] = rng.NormFloat64()
		}
		s, err1 := Spearman(xs, ys)
		p, err2 := Pearson(Ranks(xs), Ranks(ys))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error disagreement: %v vs %v", err1, err2)
		}
		if err1 != nil {
			continue
		}
		if math.Abs(s-p) > 1e-12 {
			t.Fatalf("Spearman %v != Pearson-on-ranks %v", s, p)
		}
	}
}

func TestWelfordMergesIncrementally(t *testing.T) {
	// Adding elements one at a time matches MeanVariance at every
	// prefix.
	xs := []float64{3, -1, 4, 1, -5, 9, 2, 6}
	var w Welford
	for i, x := range xs {
		w.Add(x)
		mean, variance, err := MeanVariance(xs[:i+1])
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(w.Mean(), mean, 1e-12) || !almostEqual(w.Variance(), variance, 1e-12) {
			t.Fatalf("prefix %d: welford (%v, %v) vs two-pass (%v, %v)", i+1, w.Mean(), w.Variance(), mean, variance)
		}
	}
}
