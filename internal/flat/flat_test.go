package flat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/forest"
	"repro/internal/gbdt"
	"repro/internal/tree"
)

// synth builds column-major training data with mixed continuous and
// low-cardinality columns plus a label correlated with column 0.
func synth(n, features int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]float64, features)
	for f := range cols {
		cols[f] = make([]float64, n)
	}
	y := make([]int, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.2 {
			y[i] = 1
		}
		for f := 0; f < features; f++ {
			switch {
			case f == 0:
				cols[f][i] = float64(y[i]) + rng.NormFloat64()
			case f%3 == 0:
				cols[f][i] = float64(rng.Intn(6))
			default:
				cols[f][i] = rng.NormFloat64() * 10
			}
			if f%4 == 1 && rng.Float64() < 0.1 {
				cols[f][i] = math.NaN()
			}
		}
	}
	return cols, y
}

// scoreInputs builds scoring data exercising every quantizer edge:
// random values, NaN, +/-Inf, +/-0, huge magnitudes, and exact
// training values (which hit thresholds exactly).
func scoreInputs(train [][]float64, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]float64, len(train))
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0.0, math.Copysign(0, -1),
		1e300, -1e300, 5e-324, math.MaxFloat64, -math.MaxFloat64,
	}
	for f := range cols {
		cols[f] = make([]float64, n)
		for i := 0; i < n; i++ {
			switch r := rng.Float64(); {
			case r < 0.10:
				cols[f][i] = specials[rng.Intn(len(specials))]
			case r < 0.35:
				cols[f][i] = train[f][rng.Intn(len(train[f]))]
			default:
				cols[f][i] = rng.NormFloat64() * 12
			}
		}
	}
	return cols
}

func requireBitEqual(t *testing.T, want, got []float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: row %d: %v (%016x) vs %v (%016x)",
				label, i, want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
		}
	}
}

// rows spans multiple kernel blocks so block edges are exercised.
const testRows = blockRows*2 + 777

func TestForestFlatBitExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  forest.Config
	}{
		{"default-bins", forest.Config{NumTrees: 8, MaxDepth: 5, Seed: 1}},
		{"hist", forest.Config{NumTrees: 10, MaxDepth: 8, Seed: 2, MaxBins: 32}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cols, y := synth(900, 9, 11)
			f, err := forest.Fit(cols, y, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			fl, err := CompileForest(f)
			if err != nil {
				t.Fatal(err)
			}
			in := scoreInputs(cols, testRows, 101)
			want := make([]float64, testRows)
			if err := f.PredictProbaBatch(in, want); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3} {
				fl.Workers = workers
				got := make([]float64, testRows)
				if err := fl.PredictProbaBatch(in, got); err != nil {
					t.Fatal(err)
				}
				requireBitEqual(t, want, got, tc.name)
			}
		})
	}
}

func TestGBDTFlatBitExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  gbdt.Config
	}{
		{"default-bins", gbdt.Config{NumRounds: 12, MaxDepth: 4, Eta: 0.3}},
		{"hist", gbdt.Config{NumRounds: 15, MaxDepth: 5, Eta: 0.3, MaxBins: 32}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cols, y := synth(900, 9, 21)
			m, err := gbdt.Fit(cols, y, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			fl, err := CompileModel(m)
			if err != nil {
				t.Fatal(err)
			}
			in := scoreInputs(cols, testRows, 202)
			wantP := make([]float64, testRows)
			if err := m.PredictProbaBatch(in, wantP); err != nil {
				t.Fatal(err)
			}
			wantM := make([]float64, testRows)
			if err := m.PredictMarginBatch(in, wantM); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3} {
				fl.Workers = workers
				got := make([]float64, testRows)
				if err := fl.PredictProbaBatch(in, got); err != nil {
					t.Fatal(err)
				}
				requireBitEqual(t, wantP, got, "proba")
				if err := fl.PredictMarginBatch(in, got); err != nil {
					t.Fatal(err)
				}
				requireBitEqual(t, wantM, got, "margin")
			}
		})
	}
}

func TestTreeFlatBitExact(t *testing.T) {
	cols, y := synth(700, 7, 31)
	cl, err := tree.FitClassifier(cols, y, nil, tree.Config{MaxDepth: 7})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := CompileTree(cl)
	if err != nil {
		t.Fatal(err)
	}
	in := scoreInputs(cols, testRows, 303)
	want := make([]float64, testRows)
	if err := cl.PredictProbaBatch(in, want); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, testRows)
	if err := fl.PredictProbaBatch(in, got); err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, want, got, "tree")
}

func TestSerializeRoundTrip(t *testing.T) {
	cols, y := synth(800, 8, 41)
	in := scoreInputs(cols, 3000, 404)

	f, err := forest.Fit(cols, y, forest.Config{NumTrees: 6, MaxDepth: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := CompileForest(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := fl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fl2, err := UnmarshalForest(data)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 3000)
	got := make([]float64, 3000)
	if err := fl.PredictProbaBatch(in, want); err != nil {
		t.Fatal(err)
	}
	if err := fl2.PredictProbaBatch(in, got); err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, want, got, "forest round-trip")

	m, err := gbdt.Fit(cols, y, gbdt.Config{NumRounds: 8, MaxDepth: 4, Eta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	ml, err := CompileModel(m)
	if err != nil {
		t.Fatal(err)
	}
	data, err = ml.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ml2, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := ml.PredictProbaBatch(in, want); err != nil {
		t.Fatal(err)
	}
	if err := ml2.PredictProbaBatch(in, got); err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, want, got, "gbdt round-trip")

	if _, err := UnmarshalForest([]byte("junk")); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("junk decode: %v", err)
	}
}

// chainTree builds a one-feature tree: a chain of internal nodes
// splitting at the given thresholds in order, each sending its left
// side to a leaf of distinct probability and its right side down the
// chain. Missing values alternate between routing left and right.
func chainTree(t *testing.T, thresholds []float64) *tree.Classifier {
	t.Helper()
	splits := len(thresholds)
	n := 2*splits + 1
	e := tree.Encoded{
		Feature:     make([]int, n),
		Threshold:   make([]float64, n),
		Left:        make([]int, n),
		Right:       make([]int, n),
		Prob:        make([]float64, n),
		DefaultLeft: make([]bool, n),
		NFeatures:   1,
	}
	for i := 0; i < n; i++ {
		e.Feature[i] = -1
		e.Prob[i] = float64(i) / float64(n)
	}
	for i, thr := range thresholds {
		at := 2 * i
		e.Feature[at] = 0
		e.Threshold[at] = thr
		e.Left[at] = at + 1
		e.Right[at] = at + 2
		e.DefaultLeft[at] = i%2 == 1
	}
	cl, err := tree.Import(e)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestChunkedCutsBitExact compiles trees splitting one feature at more
// than 254 distinct thresholds, which spill into several uint8 code
// columns, and requires bit-identity with the pointer tree on every
// chunk edge: each chunk's first and last cut, the values between
// chunks, the neighbours of every cut, the zeros, the infinities and
// NaN. The payload round trip must preserve the chunked layout.
func TestChunkedCutsBitExact(t *testing.T) {
	for _, splits := range []int{255, 640} {
		t.Run(fmt.Sprint(splits), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(splits)))
			cuts := make([]float64, splits)
			for i := range cuts {
				cuts[i] = float64(i-splits/2) * 0.5 // includes 0.0
			}
			// Chain the thresholds in random order so rows are compared
			// against cuts of every chunk, not just their own.
			order := make([]float64, splits)
			for i, j := range rng.Perm(splits) {
				order[i] = cuts[j]
			}
			cl := chainTree(t, order)
			fl, err := CompileTree(cl)
			if err != nil {
				t.Fatal(err)
			}
			chunks := (splits + maxCuts - 1) / maxCuts
			if got := len(fl.e.q.cols); got != chunks {
				t.Fatalf("%d code columns, want %d", got, chunks)
			}

			in := []float64{
				math.NaN(), math.Inf(1), math.Inf(-1), 0.0, math.Copysign(0, -1),
				cuts[0] - 1, cuts[splits-1] + 1,
			}
			for lo := 0; lo < splits; lo += maxCuts {
				first, last := cuts[lo], cuts[min(lo+maxCuts, splits)-1]
				in = append(in, first, last)
				if lo+maxCuts < splits {
					// Strictly between this chunk's last cut and the
					// next chunk's first.
					in = append(in, (last+cuts[lo+maxCuts])/2)
				}
			}
			for _, c := range cuts {
				in = append(in, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
			}
			for i := 0; i < 2000; i++ {
				in = append(in, rng.NormFloat64()*float64(splits)/4)
			}
			cols := [][]float64{in}
			want := make([]float64, len(in))
			if err := cl.PredictProbaBatch(cols, want); err != nil {
				t.Fatal(err)
			}
			got := make([]float64, len(in))
			if err := fl.PredictProbaBatch(cols, got); err != nil {
				t.Fatal(err)
			}
			requireBitEqual(t, want, got, "chunked")

			e, err := decodeEnsemble(fl.e.encode())
			if err != nil {
				t.Fatal(err)
			}
			rt := &Tree{e: e}
			if err := rt.PredictProbaBatch(cols, got); err != nil {
				t.Fatal(err)
			}
			requireBitEqual(t, want, got, "chunked round-trip")
		})
	}
}

// TestZeroRouting pins the -0.0/+0.0 edge: a split at 0.0 must route
// -0.0 (equal to 0.0 under float compares) left, and the next
// representable negative value left as well.
func TestZeroRouting(t *testing.T) {
	e := tree.Encoded{
		Feature:     []int{0, -1, -1},
		Threshold:   []float64{0.0, 0, 0},
		Left:        []int{1, 0, 0},
		Right:       []int{2, 0, 0},
		Prob:        []float64{0.5, 0.25, 0.75},
		DefaultLeft: []bool{true, false, false},
		NFeatures:   1,
	}
	cl, err := tree.Import(e)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := CompileTree(cl)
	if err != nil {
		t.Fatal(err)
	}
	in := [][]float64{{math.Copysign(0, -1), 0.0, 5e-324, -5e-324, math.NaN(), math.Inf(1), math.Inf(-1)}}
	want := make([]float64, len(in[0]))
	if err := cl.PredictProbaBatch(in, want); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(in[0]))
	if err := fl.PredictProbaBatch(in, got); err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, want, got, "zero routing")
}

func TestShapeErrors(t *testing.T) {
	cols, y := synth(300, 5, 51)
	f, err := forest.Fit(cols, y, forest.Config{NumTrees: 3, MaxDepth: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := CompileForest(f)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 10)
	if err := fl.PredictProbaBatch(make([][]float64, 3), out); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("column count: %v", err)
	}
	short := make([][]float64, 5)
	for i := range short {
		short[i] = make([]float64, 4)
	}
	if err := fl.PredictProbaBatch(short, out); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("short column: %v", err)
	}
}
