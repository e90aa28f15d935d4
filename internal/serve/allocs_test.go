//go:build !race

package serve

import (
	"testing"

	"repro/internal/smart"
)

// Allocation counts are pinned only without the race detector, which
// makes sync.Pool drop a quarter of its Puts on purpose.

// TestSingleScoreAllocs pins the single-drive kernel call: once the
// row is assembled in pooled scratch, scoring it through the scratch's
// one-row column views allocates nothing.
func TestSingleScoreAllocs(t *testing.T) {
	s, _, st := newTestServer(t, Options{})
	_, snapA, _ := testFleet(t)
	sv := s.arts["serving"].cur.Load()
	snap := st.Snapshot()
	day := snapA.TrainedThrough + 3
	var series map[smart.Feature][]float64
	g := -1
	for _, ref := range snap.RefIndex(testModel) {
		cols, lastDay, err := snap.Series(ref)
		if err != nil {
			t.Fatal(err)
		}
		if lastDay < day {
			continue
		}
		if g = sv.scorer.PickGroup(routeMWI(cols, day, nil)); g >= 0 {
			series = cols
			break
		}
	}
	if g < 0 {
		t.Fatal("no drive observed on the scored day routes to a wear group")
	}
	rt := sv.groups[g]
	fs := getScratch(rt.width, len(rt.feats))
	defer putScratch(fs)
	if err := sv.driveRow(rt, series, day, fs); err != nil {
		t.Fatal(err)
	}
	score := func() {
		if err := sv.scorer.ScoreBatch(g, fs.cols, fs.prob[:]); err != nil {
			t.Fatal(err)
		}
	}
	score()
	if allocs := testing.AllocsPerRun(1000, score); allocs != 0 {
		t.Errorf("one-row ScoreBatch allocates %.3f objects/op, want 0", allocs)
	}
}
