//go:build !race

package flat

import (
	"testing"

	"repro/internal/forest"
)

// Allocation counts are pinned only without the race detector, which
// makes sync.Pool drop a quarter of its Puts on purpose.

// TestForestOneRowAllocs pins the single-drive serving call: scoring
// one row through a compiled forest allocates nothing once the
// kernel's scratch pool is warm.
func TestForestOneRowAllocs(t *testing.T) {
	cols, y := synth(900, 9, 11)
	f, err := forest.Fit(cols, y, forest.Config{NumTrees: 8, MaxDepth: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := CompileForest(f)
	if err != nil {
		t.Fatal(err)
	}
	in := scoreInputs(cols, 1, 5)
	out := make([]float64, 1)
	if err := fl.PredictProbaBatch(in, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := fl.PredictProbaBatch(in, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("one-row PredictProbaBatch allocates %.3f objects/op, want 0", allocs)
	}
}
