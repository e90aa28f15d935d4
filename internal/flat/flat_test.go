package flat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/forest"
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
			x := make([]float64, len(in))
			for i := range want {
				for j := range in {
					x[j] = in[j][i]
				}
				want[i] = f.PredictProba(x)
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

// walk is the reference the kernel is held to: the probability of the
// leaf row i of cols reaches in the encoded tree, routing by float
// compare and missing (NaN) values by each node's DefaultLeft.
func walk(e tree.Encoded, cols [][]float64, i int) float64 {
	k := 0
	for e.Feature[k] >= 0 {
		v := cols[e.Feature[k]][i]
		if v <= e.Threshold[k] || (v != v && e.DefaultLeft[k]) {
			k = e.Left[k]
		} else {
			k = e.Right[k]
		}
	}
	return e.Prob[k]
}

// walkRows scores every row of cols through walk, summing the trees in
// order and then dividing, as forest.Forest.PredictProba does.
func walkRows(encs []tree.Encoded, cols [][]float64) []float64 {
	out := make([]float64, len(cols[0]))
	for i := range out {
		for _, e := range encs {
			out[i] += walk(e, cols, i)
		}
		out[i] /= float64(len(encs))
	}
	return out
}

// compileEncoded compiles hand-built trees through the production
// compile path.
func compileEncoded(t *testing.T, encs ...tree.Encoded) *Forest {
	t.Helper()
	fl, err := compile(encs[0].NFeatures, encs)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// randomTree builds a seeded nf-feature tree in the preorder
// tree.Export emits: random split features, thresholds drawn from the
// feature's cut pool (so nodes and trees repeat cuts), mixed missing
// directions, and random leaf probabilities.
func randomTree(rng *rand.Rand, nf, depth int, pools [][]float64) tree.Encoded {
	e := tree.Encoded{NFeatures: nf}
	var grow func(d int) int
	grow = func(d int) int {
		k := len(e.Feature)
		e.Feature = append(e.Feature, -1)
		e.Threshold = append(e.Threshold, 0)
		e.Left = append(e.Left, 0)
		e.Right = append(e.Right, 0)
		e.Prob = append(e.Prob, rng.Float64())
		e.DefaultLeft = append(e.DefaultLeft, false)
		if d == depth || (d > 1 && rng.Intn(5) == 0) {
			return k
		}
		f := rng.Intn(nf)
		e.Feature[k] = f
		e.Threshold[k] = pools[f][rng.Intn(len(pools[f]))]
		e.DefaultLeft[k] = rng.Intn(2) == 0
		l := grow(d + 1)
		e.Left[k], e.Right[k] = l, grow(d+1)
		return k
	}
	grow(0)
	return e
}

// cutPool draws a feature's candidate thresholds: continuous values,
// small integers and their midpoints, both zeros, and extreme
// magnitudes. A pool of more than maxCuts values lets a forest's cut
// set spill into several code columns.
func cutPool(rng *rand.Rand, size int) []float64 {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e300, -1e300, math.MaxFloat64}
	pool := make([]float64, size)
	for i := range pool {
		switch r := rng.Float64(); {
		case r < 0.1:
			pool[i] = specials[rng.Intn(len(specials))]
		case r < 0.4:
			pool[i] = float64(rng.Intn(12)) / 2
		default:
			pool[i] = rng.NormFloat64() * 10
		}
	}
	return pool
}

// TestTreeFlatBitExact compiles seeded hand-built trees with arbitrary
// thresholds (not bin cuts) and mixed missing directions, and requires
// bit-identity with walkRows on inputs that hit every cut exactly, its
// float neighbours, NaN, the infinities and both zeros.
func TestTreeFlatBitExact(t *testing.T) {
	for _, tc := range []struct {
		seed             int64
		nf, trees, depth int
	}{
		{1, 1, 1, 3}, {2, 3, 4, 6}, {3, 6, 8, 10}, {4, 4, 3, 12},
		// Enough splits per feature to spill into chunked code columns.
		{5, 3, 48, 12},
	} {
		seed, nf := tc.seed, tc.nf
		rng := rand.New(rand.NewSource(seed))
		pools := make([][]float64, nf)
		near := make([][]float64, nf) // cuts and their float neighbours
		for f := range pools {
			pools[f] = cutPool(rng, 1+rng.Intn(800))
			for _, c := range pools[f] {
				near[f] = append(near[f], c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
			}
		}
		encs := make([]tree.Encoded, tc.trees)
		for i := range encs {
			encs[i] = randomTree(rng, nf, tc.depth, pools)
		}
		fl := compileEncoded(t, encs...)
		in := scoreInputs(near, testRows, seed+300)
		want := walkRows(encs, in)
		for _, workers := range []int{1, 3} {
			fl.Workers = workers
			got := make([]float64, testRows)
			if err := fl.PredictProbaBatch(in, got); err != nil {
				t.Fatal(err)
			}
			requireBitEqual(t, want, got, fmt.Sprintf("seed %d (%d features, %d trees, %d code columns)", seed, nf, len(encs), len(fl.q.cols)))
		}
	}
}

// TestCompileRejectsBadEncoding pins that compile returns
// ErrNotCompilable, not a panic or a hang, for an encoding that is not
// a tree: every node array must hold one entry per node (a missing
// DefaultLeft no longer means "missing goes right"), split features
// must be in range, and child links must not cycle.
func TestCompileRejectsBadEncoding(t *testing.T) {
	e := tree.Encoded{
		Feature:     []int{0, -1, -1},
		Threshold:   []float64{5, 0, 0},
		Left:        []int{1, 0, 0},
		Right:       []int{2, 0, 0},
		Prob:        []float64{0.5, 0.1, 0.9},
		DefaultLeft: []bool{true, false, false},
		NFeatures:   1,
	}
	if _, err := compile(1, []tree.Encoded{e}); err != nil {
		t.Fatalf("aligned tree: %v", err)
	}
	for name, mutate := range map[string]func(*tree.Encoded){
		"nil DefaultLeft":   func(e *tree.Encoded) { e.DefaultLeft = nil },
		"short DefaultLeft": func(e *tree.Encoded) { e.DefaultLeft = e.DefaultLeft[:1] },
		"short Prob":        func(e *tree.Encoded) { e.Prob = e.Prob[:2] },
		"short Threshold":   func(e *tree.Encoded) { e.Threshold = e.Threshold[:2] },
		"feature range":     func(e *tree.Encoded) { e.Feature = []int{1, -1, -1} },
		"self child":        func(e *tree.Encoded) { e.Left = []int{0, 0, 0} },
	} {
		bad := e
		mutate(&bad)
		if _, err := compile(1, []tree.Encoded{bad}); !errors.Is(err, ErrNotCompilable) {
			t.Errorf("%s: %v, want ErrNotCompilable", name, err)
		}
	}
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

	if _, err := UnmarshalForest([]byte("junk")); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("junk decode: %v", err)
	}
}

// chainTree builds a one-feature tree: a chain of internal nodes
// splitting at the given thresholds in order, each sending its left
// side to a leaf of distinct probability and its right side down the
// chain. Missing values alternate between routing left and right.
func chainTree(thresholds []float64) tree.Encoded {
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
	return e
}

// TestChunkedCutsBitExact compiles trees splitting one feature at more
// than 254 distinct thresholds, which spill into several uint8 code
// columns, and requires bit-identity with walkRows on every
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
			e := chainTree(order)
			fl := compileEncoded(t, e)
			chunks := (splits + maxCuts - 1) / maxCuts
			if got := len(fl.q.cols); got != chunks {
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
			want := walkRows([]tree.Encoded{e}, cols)
			got := make([]float64, len(in))
			if err := fl.PredictProbaBatch(cols, got); err != nil {
				t.Fatal(err)
			}
			requireBitEqual(t, want, got, "chunked")

			rt, err := decode(fl.encode())
			if err != nil {
				t.Fatal(err)
			}
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
	fl := compileEncoded(t, e)
	in := [][]float64{{math.Copysign(0, -1), 0.0, 5e-324, -5e-324, math.NaN(), math.Inf(1), math.Inf(-1)}}
	want := walkRows([]tree.Encoded{e}, in)
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
