package dataset

import (
	"math"
	"testing"

	"repro/internal/simulate"
	"repro/internal/smart"
)

// TestFrameDeterminismPooled re-extracts the same frame repeatedly with
// parallel workers and requires bit-identical columns: extraction runs
// on recycled slabs (slabPool), so any cell not fully overwritten shows
// up as run-to-run nondeterminism here.
func TestFrameDeterminismPooled(t *testing.T) {
	f, err := simulate.New(simulate.Config{TotalDrives: 700, Seed: 5, AFRScale: 4})
	if err != nil {
		t.Fatal(err)
	}
	src := FleetSource{Fleet: f}
	opts := FrameOpts{Model: smart.MC1, DayLo: 500, DayHi: 560, NegEvery: 1, Workers: 8}
	a, err := Frame(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		b, err := Frame(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.NumRows() != b.NumRows() || a.NumFeatures() != b.NumFeatures() {
			t.Fatalf("rep %d: shape %dx%d vs %dx%d", rep, a.NumFeatures(), a.NumRows(), b.NumFeatures(), b.NumRows())
		}
		for c := 0; c < a.NumFeatures(); c++ {
			ca, cb := a.Col(c), b.Col(c)
			for i := range ca {
				if math.Float64bits(ca[i]) != math.Float64bits(cb[i]) {
					t.Fatalf("rep %d col %d row %d: %v vs %v", rep, c, i, ca[i], cb[i])
				}
			}
		}
	}
}
