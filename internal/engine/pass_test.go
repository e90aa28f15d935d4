package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/flat"
	"repro/internal/forest"
	"repro/internal/frame"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/store"
)

// The one-pass scorer (Scorer.ScoreInto) is checked here against the
// frame-based reference, finalizeOutcomes(scorePhase(...)), which
// builds the same rows through dataset.Frame. The fixture is a small
// simulated MC1 fleet with injected missing readings and a two-group
// snapshot whose wear bounds leave a gap no group admits.

// memSource is an in-memory Source over materialized series.
type memSource struct {
	days   int
	refs   []dataset.DriveRef
	series map[int]map[smart.Feature][]float64
	last   map[int]int
}

func (m *memSource) Days() int { return m.days }

func (m *memSource) DrivesOf(model smart.ModelID) []dataset.DriveRef {
	if model != smart.MC1 {
		return nil
	}
	return m.refs
}

func (m *memSource) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	cols, ok := m.series[ref.ID]
	if !ok {
		return nil, 0, fmt.Errorf("no drive %d", ref.ID)
	}
	return cols, m.last[ref.ID], nil
}

// materialize copies every MC1 series of src, then lets inject modify
// the copies in place.
func materialize(src dataset.Source, inject func(ref dataset.DriveRef, cols map[smart.Feature][]float64)) (*memSource, error) {
	m := &memSource{
		days:   src.Days(),
		refs:   src.DrivesOf(smart.MC1),
		series: make(map[int]map[smart.Feature][]float64),
		last:   make(map[int]int),
	}
	for _, ref := range m.refs {
		cols, last, err := src.Series(ref)
		if err != nil {
			return nil, err
		}
		own := make(map[smart.Feature][]float64, len(cols))
		for ft, col := range cols {
			own[ft] = append([]float64(nil), col...)
		}
		if inject != nil {
			inject(ref, own)
		}
		m.series[ref.ID], m.last[ref.ID] = own, last
	}
	return m, nil
}

// injectMissing blanks readings at random: MWI_N on about one
// drive-day in rate (NaN wear routes to the low-wear group), and a
// gap of up to ten days in one other feature of about one drive in
// four.
func injectMissing(seed int64, rate int) func(dataset.DriveRef, map[smart.Feature][]float64) {
	feats := smart.MustSpec(smart.MC1).Features()
	return func(ref dataset.DriveRef, cols map[smart.Feature][]float64) {
		rng := rand.New(rand.NewSource(seed*7919 + int64(ref.ID)))
		mwi := cols[MWIFeature]
		for d := range mwi {
			if rng.Intn(rate) == 0 {
				mwi[d] = math.NaN()
			}
		}
		if rng.Intn(4) == 0 {
			col := cols[feats[rng.Intn(len(feats))]]
			from := rng.Intn(len(col))
			for d := from; d < min(len(col), from+1+rng.Intn(10)); d++ {
				col[d] = math.NaN()
			}
		}
	}
}

// passFixture is the shared fleet and snapshot.
type passFixture struct {
	clean *memSource // the simulated fleet, no injected gaps
	dirty *memSource // the same with injectMissing(1, 25)
	snap  *ModelSnapshot
}

var (
	passOnce sync.Once
	passFix  passFixture
	passErr  error
)

const passDays = 120

func simulatedMC1(drives int) (dataset.Source, error) {
	f, err := simulate.New(simulate.Config{
		TotalDrives: drives, Days: passDays, Seed: 3, AFRScale: 10,
		Models: []smart.ModelID{smart.MC1},
	})
	if err != nil {
		return nil, err
	}
	return dataset.FleetSource{Fleet: f}, nil
}

func getPassFixture(t testing.TB) *passFixture {
	t.Helper()
	passOnce.Do(func() {
		src, err := simulatedMC1(160)
		if err != nil {
			passErr = err
			return
		}
		if passFix.clean, passErr = materialize(src, nil); passErr != nil {
			return
		}
		if passFix.dirty, passErr = materialize(src, injectMissing(1, 25)); passErr != nil {
			return
		}
		passFix.snap, passErr = passSnapshot(passFix.dirty)
	})
	if passErr != nil {
		t.Fatalf("fixture: %v", passErr)
	}
	return &passFix
}

// passSnapshot trains one small forest per wear group on the first 80
// days. The groups read overlapping feature sets, and their bounds
// (the 40th and 60th percentiles of the fleet's wear over the scored
// days) leave the wear band between them to no group.
func passSnapshot(src dataset.Source) (*ModelSnapshot, error) {
	var wear []float64
	for _, ref := range src.DrivesOf(smart.MC1) {
		cols, last, err := src.Series(ref)
		if err != nil {
			return nil, err
		}
		for d := 80; d <= last; d++ {
			if v := cols[MWIFeature][d]; !math.IsNaN(v) {
				wear = append(wear, v)
			}
		}
	}
	sort.Float64s(wear)
	below, atLeast := wear[len(wear)*4/10], wear[len(wear)*6/10]
	if !(below < atLeast) {
		return nil, fmt.Errorf("wear quantiles %v, %v leave no gap", below, atLeast)
	}
	all := smart.MustSpec(smart.MC1).Features()
	groups := []struct {
		feats          []smart.Feature
		below, atLeast float64
		threshold      float64
	}{
		{feats: append([]smart.Feature{MWIFeature}, all[:4]...), below: below, threshold: 0.2},
		{feats: all[2:8], atLeast: atLeast, threshold: 0.3},
	}
	snap := &ModelSnapshot{Format: SnapshotFormat, Model: smart.MC1, Selector: "pass-test", TrainedThrough: 79}
	for gi, g := range groups {
		fr, err := dataset.Frame(src, dataset.FrameOpts{
			Model: smart.MC1, DayLo: 0, DayHi: 79, NegEvery: 2,
			Features: g.feats, Expand: true,
		})
		if err != nil {
			return nil, err
		}
		if fr.Positives() == 0 {
			return nil, fmt.Errorf("group %d trains without positives", gi)
		}
		fo, err := forest.Fit(frameColumns(fr), fr.Labels(), forest.Config{NumTrees: 4, MaxDepth: 6, Seed: int64(gi + 1)})
		if err != nil {
			return nil, err
		}
		fl, err := flat.CompileForest(fo)
		if err != nil {
			return nil, err
		}
		payload, err := fl.MarshalBinary()
		if err != nil {
			return nil, err
		}
		names := make([]string, len(g.feats))
		for i, ft := range g.feats {
			names[i] = ft.String()
		}
		snap.Groups = append(snap.Groups, GroupSnapshot{
			Features: names, MWIBelow: g.below, MWIAtLeast: g.atLeast,
			Predictor: predictorForest, FlatData: payload,
		})
		snap.Thresholds = append(snap.Thresholds, g.threshold)
	}
	return snap, nil
}

func frameColumns(fr *frame.Frame) [][]float64 {
	cols := make([][]float64, fr.NumFeatures())
	for i := range cols {
		cols[i] = fr.Col(i)
	}
	return cols
}

// storeOver ingests src into a fresh in-memory store, spilled to disk
// when spillDir is set, and returns a snapshot of its full horizon.
func storeOver(t testing.TB, src dataset.Source, spillDir string) *store.Snapshot {
	t.Helper()
	st := store.Open(src, store.Options{Workers: 1, SpillDir: spillDir})
	t.Cleanup(func() { st.Close() })
	if err := st.Track(smart.MC1); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendThrough(src.Days() - 1); err != nil {
		t.Fatal(err)
	}
	if spillDir != "" {
		if err := st.Spill(); err != nil {
			t.Fatal(err)
		}
	}
	return st.Snapshot()
}

// checkMatchesFramePath scores [lo, hi] with s.ScoreInto and with the
// frame reference and requires identical outcomes, float bits
// included. It returns the outcomes.
func checkMatchesFramePath(t testing.TB, s *Scorer, src dataset.Source, lo, hi int, buf *ScoreBuf) []DriveOutcome {
	t.Helper()
	scores, _, err := scorePhase(src, s.snap.Model, s.groups, lo, hi, s.cfg)
	if err != nil {
		t.Fatalf("[%d, %d] reference: %v", lo, hi, err)
	}
	want := finalizeOutcomes(scores, s.snap.Thresholds, hi)
	got, err := s.ScoreInto(src, lo, hi, buf)
	if err != nil {
		t.Fatalf("[%d, %d]: %v", lo, hi, err)
	}
	if len(got) != len(want) {
		t.Fatalf("[%d, %d]: %d outcomes, frame path %d", lo, hi, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Pred != w.Pred || math.Float64bits(g.MWI) != math.Float64bits(w.MWI) ||
			math.Float64bits(g.MaxProb) != math.Float64bits(w.MaxProb) {
			t.Fatalf("[%d, %d] outcome %d: %+v, frame path %+v", lo, hi, i, g, w)
		}
	}
	return got
}

// TestScorerMatchesFramePath is the differential check of the
// one-pass scorer: over 1- and 30-day windows, Workers 1, 2 and 4, and
// a plain source, an in-memory store and a spilled store, its outcomes
// equal the frame path's bit for bit. The fixture covers drives that
// end inside a window, NaN wear readings, feature gaps, and days no
// group admits.
func TestScorerMatchesFramePath(t *testing.T) {
	fx := getPassFixture(t)
	src := fx.dirty
	sources := []struct {
		name string
		src  dataset.Source
	}{
		{"plain", src},
		{"store", storeOver(t, src, "")},
		{"spilled", storeOver(t, src, t.TempDir())},
	}
	windows := [][2]int{{1, 1}, {85, 85}, {119, 119}, {60, 89}, {90, 119}}

	// The fixture must exercise what the test claims to cover.
	probe, err := NewScorer(fx.snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	var endsInside, nanWear, unrouted bool
	for _, ref := range src.refs {
		last := src.last[ref.ID]
		endsInside = endsInside || (last >= 90 && last < 119)
		for d := 60; d <= last; d++ {
			mwi := src.series[ref.ID][MWIFeature][d]
			nanWear = nanWear || math.IsNaN(mwi)
			unrouted = unrouted || probe.PickGroup(mwi) < 0
		}
	}
	if !endsInside || !nanWear || !unrouted {
		t.Fatalf("fixture lacks coverage: drive ending inside a window %v, NaN wear %v, unrouted day %v",
			endsInside, nanWear, unrouted)
	}

	for _, workers := range []int{1, 2, 4} {
		s, err := NewScorer(fx.snap, workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range sources {
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(t *testing.T) {
				var buf ScoreBuf // reused across windows, as the daemon does
				alarms := 0
				for _, w := range windows {
					for _, o := range checkMatchesFramePath(t, s, sc.src, w[0], w[1], &buf) {
						if o.Pred.FirstAlarmDay >= 0 {
							alarms++
						}
					}
				}
				if alarms == 0 {
					t.Error("no window raised an alarm; the thresholds test nothing")
				}
			})
		}
	}
}

// TestScorerDayZeroWindow pins the day-0 window: ScoreInto(src, 0, 0)
// scores day 0 only, so no drive can alarm on a later day.
func TestScorerDayZeroWindow(t *testing.T) {
	fx := getPassFixture(t)
	s, err := NewScorer(fx.snap, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []dataset.Source{fx.dirty, storeOver(t, fx.dirty, "")} {
		out, err := s.ScoreInto(src, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatal("day-0 pass scored no drives")
		}
		for _, o := range out {
			if o.Pred.FirstAlarmDay != -1 && o.Pred.FirstAlarmDay != 0 {
				t.Fatalf("drive %d alarms on day %d in a day-0 window", o.Pred.DriveID, o.Pred.FirstAlarmDay)
			}
		}
	}
}

// TestScorerWindowErrors: windows outside the source are refused.
func TestScorerWindowErrors(t *testing.T) {
	fx := getPassFixture(t)
	s, err := NewScorer(fx.snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][2]int{{-1, 3}, {5, 4}, {100, passDays}} {
		if _, err := s.ScoreInto(fx.clean, w[0], w[1], nil); err == nil {
			t.Errorf("window %v accepted", w)
		}
	}
}

// FuzzScorerMatchesFramePath drives the differential check with
// random windows, worker counts, sources and missing-reading patterns.
func FuzzScorerMatchesFramePath(f *testing.F) {
	f.Add(uint8(85), uint8(0), uint8(1), int64(1), uint8(0), false)
	f.Add(uint8(119), uint8(29), uint8(2), int64(2), uint8(3), true)
	f.Add(uint8(1), uint8(5), uint8(4), int64(3), uint8(9), false)
	f.Fuzz(func(t *testing.T, day, window, workers uint8, seed int64, rate uint8, viaStore bool) {
		fx := getPassFixture(t)
		hi := 1 + int(day)%(passDays-1)
		lo := max(0, hi-int(window)%30)
		var src dataset.Source = fx.clean
		if rate > 0 {
			dirty, err := materialize(fx.clean, injectMissing(seed, 2+int(rate)%40))
			if err != nil {
				t.Fatal(err)
			}
			src = dirty
		}
		if viaStore {
			src = storeOver(t, src, "")
		}
		s, err := NewScorer(fx.snap, 1+int(workers)%4)
		if err != nil {
			t.Fatal(err)
		}
		checkMatchesFramePath(t, s, src, lo, hi, nil)
	})
}
