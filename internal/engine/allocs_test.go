//go:build !race

package engine

import "testing"

// Allocation counts are pinned only without the race detector, which
// makes sync.Pool drop a quarter of its Puts on purpose.

// TestScoreIntoAllocs pins a warm one-day ScoreInto over a store: at
// most 64 allocations per pass at both 100 and 500 drives, so the count
// does not grow with the fleet.
func TestScoreIntoAllocs(t *testing.T) {
	fx := getPassFixture(t)
	s, err := NewScorer(fx.snap, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, drives := range []int{100, 500} {
		src, err := simulatedMC1(drives)
		if err != nil {
			t.Fatal(err)
		}
		snap := storeOver(t, src, "")
		var buf ScoreBuf
		scored := 0
		pass := func() {
			out, err := s.ScoreInto(snap, 100, 100, &buf)
			if err != nil {
				t.Fatal(err)
			}
			scored = len(out)
		}
		pass()
		if scored == 0 {
			t.Fatalf("%d drives: the pass scored nothing", drives)
		}
		if allocs := testing.AllocsPerRun(20, pass); allocs > 64 {
			t.Errorf("%d drives: warm one-day ScoreInto allocates %.1f objects/op, want <= 64", drives, allocs)
		} else {
			t.Logf("%d drives (%d scored): %.1f allocs/op", drives, scored, allocs)
		}
	}
}
