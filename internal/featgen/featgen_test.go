package featgen

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

func TestNames(t *testing.T) {
	names := Names("UCE_R", DefaultWindows)
	if len(names) != 12 {
		t.Fatalf("names len = %d, want 12", len(names))
	}
	want := []string{
		"UCE_R.max3", "UCE_R.min3", "UCE_R.mean3", "UCE_R.std3", "UCE_R.range3", "UCE_R.wma3",
		"UCE_R.max7", "UCE_R.min7", "UCE_R.mean7", "UCE_R.std7", "UCE_R.range7", "UCE_R.wma7",
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestGenerateShape(t *testing.T) {
	series := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cols, err := Generate(series, DefaultWindows)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != NumGenerated(DefaultWindows) {
		t.Fatalf("cols = %d, want %d", len(cols), NumGenerated(DefaultWindows))
	}
	for i, c := range cols {
		if len(c) != len(series) {
			t.Errorf("col %d length %d, want %d", i, len(c), len(series))
		}
	}
}

func TestGenerateValues(t *testing.T) {
	series := []float64{4, 2, 6}
	cols, err := Generate(series, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	// Day 2, full window [4, 2, 6].
	if cols[0][2] != 6 { // max
		t.Errorf("max = %v", cols[0][2])
	}
	if cols[1][2] != 2 { // min
		t.Errorf("min = %v", cols[1][2])
	}
	if cols[2][2] != 4 { // mean
		t.Errorf("mean = %v", cols[2][2])
	}
	if cols[4][2] != 4 { // range
		t.Errorf("range = %v", cols[4][2])
	}
	// WMA weights 1,2,3: (4 + 4 + 18)/6.
	if math.Abs(cols[5][2]-26.0/6) > 1e-12 {
		t.Errorf("wma = %v, want %v", cols[5][2], 26.0/6)
	}
	// Day 0: degenerate partial window.
	if cols[0][0] != 4 || cols[1][0] != 4 || cols[3][0] != 0 {
		t.Errorf("day 0 stats = max %v min %v std %v", cols[0][0], cols[1][0], cols[3][0])
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate([]float64{1}, nil); !errors.Is(err, ErrNoWindows) {
		t.Errorf("no windows error = %v", err)
	}
	if _, err := Generate([]float64{1}, []int{0}); err == nil {
		t.Error("zero window should fail")
	}
}

func TestNamesMatchColumns(t *testing.T) {
	windows := []int{2, 5, 9}
	names := Names("X", windows)
	cols, err := Generate([]float64{1, 2, 3}, windows)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(cols) {
		t.Errorf("names %d != cols %d", len(names), len(cols))
	}
}

// TestGenerateAtMatchesRangeInto: GenerateAt writing rows at an offset
// of longer columns holds, bit for bit, what GenerateRangeInto writes
// into exactly sized columns, and touches no row outside its range.
// Series mix finite values with NaN, ±Inf and ±0, over several window
// sets and every kind of range: the first day, whole series, runs
// inside and at the end.
func TestGenerateAtMatchesRangeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	windowSets := [][]int{{3, 7}, {1}, {2, 5, 9}, {30}}
	const sentinel = -12345.5
	var scratchAt, scratchRef []stats.RollingStats
	for iter := 0; iter < 500; iter++ {
		series := make([]float64, 1+rng.Intn(40))
		for i := range series {
			if rng.Intn(4) == 0 {
				series[i] = specials[rng.Intn(len(specials))]
			} else {
				series[i] = math.Round(rng.NormFloat64()*1e3) / 8
			}
		}
		windows := windowSets[rng.Intn(len(windowSets))]
		from := rng.Intn(len(series))
		to := from + rng.Intn(len(series)-from)
		width := to - from + 1
		at := rng.Intn(8)
		rows := at + width + rng.Intn(4)

		ref := make([][]float64, NumGenerated(windows))
		dst := make([][]float64, NumGenerated(windows))
		for c := range dst {
			ref[c] = make([]float64, width)
			dst[c] = make([]float64, rows)
			for r := range dst[c] {
				dst[c][r] = sentinel
			}
		}
		var err error
		if scratchRef, err = GenerateRangeInto(ref, series, windows, from, to, scratchRef); err != nil {
			t.Fatal(err)
		}
		if scratchAt, err = GenerateAt(dst, at, series, windows, from, to, scratchAt); err != nil {
			t.Fatal(err)
		}
		for c := range dst {
			for r, v := range dst[c] {
				want := sentinel
				if r >= at && r < at+width {
					want = ref[c][r-at]
				}
				if math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("iter %d: windows %v range [%d, %d] at %d: column %d row %d = %v, want %v (series %v)",
						iter, windows, from, to, at, c, r, v, want, series)
				}
			}
		}
	}
}

// TestGenerateAtErrors: a wrong column count, an empty or out-of-range
// day range and an invalid window are errors, as in GenerateRangeInto.
func TestGenerateAtErrors(t *testing.T) {
	series := []float64{1, 2, 3}
	dst := make([][]float64, NumGenerated(DefaultWindows))
	for c := range dst {
		dst[c] = make([]float64, 4)
	}
	cases := []struct {
		name     string
		dst      [][]float64
		windows  []int
		from, to int
	}{
		{"no windows", dst, nil, 0, 0},
		{"column count", dst[1:], DefaultWindows, 0, 0},
		{"empty range", dst, DefaultWindows, 2, 1},
		{"past the series", dst, DefaultWindows, 1, 3},
		{"zero window", dst[:StatsPerWindow], []int{0}, 0, 1},
	}
	for _, tc := range cases {
		if _, err := GenerateAt(tc.dst, 1, series, tc.windows, tc.from, tc.to, nil); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}
