package engine

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/forest"
	"repro/internal/frame"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/survival"
)

// allFeats is a minimal no-selection strategy for engine tests (the
// real selectors live in internal/pipeline, which imports this
// package).
type allFeats struct{}

func (allFeats) Name() string { return "all" }

func (allFeats) Select(fr *frame.Frame, _ survival.Curve) (SelectorResult, error) {
	names := make([]string, fr.NumFeatures())
	copy(names, fr.Names())
	return SelectorResult{All: names}, nil
}

func testSource(t *testing.T) dataset.Source {
	t.Helper()
	f, err := simulate.New(simulate.Config{TotalDrives: 700, Seed: 5, AFRScale: 4})
	if err != nil {
		t.Fatal(err)
	}
	return dataset.FleetSource{Fleet: f}
}

func testCfg() Config {
	return Config{
		Forest:   forest.Config{NumTrees: 10, MaxDepth: 6, Seed: 1},
		NegEvery: 20,
		Seed:     1,
	}
}

// TestSnapshotRoundTrip is the held-out-window bit-identity check:
// train a phase, capture its ModelSnapshot, persist it through the
// registry, reload it (as a fresh process would), and score the test
// window — the outcomes must equal the in-memory run's exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	src := testSource(t)
	ph := StandardPhases(src.Days())[2]
	res, err := RunPhase(src, smart.MC1, allFeats{}, ph, testCfg())
	if err != nil {
		t.Fatal(err)
	}

	snap, err := res.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.TrainedThrough != ph.TrainHi || snap.Model != smart.MC1 || snap.Selector != "all" {
		t.Fatalf("snapshot header: %+v", snap)
	}
	if snap.ConfigHash != testCfg().Hash() {
		t.Errorf("config hash %q != %q", snap.ConfigHash, testCfg().Hash())
	}

	reg := &core.Registry{Dir: t.TempDir()}
	version, err := SaveSnapshot(reg, "mc1-all", snap)
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 {
		t.Errorf("first save version = %d", version)
	}

	// Reload from disk — nothing shared with the in-memory snapshot —
	// and score the same held-out window from a fresh source.
	loaded, err := LoadSnapshot(reg, "mc1-all", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Thresholds, res.Thresholds) {
		t.Errorf("thresholds: loaded %v != trained %v", loaded.Thresholds, res.Thresholds)
	}
	outcomes, err := ScoreSnapshot(testSource(t), loaded, ph.TestLo, ph.TestHi, ScoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outcomes, res.Outcomes) {
		t.Fatal("snapshot-scored outcomes differ from the in-memory run")
	}

	// Scoring with a different worker count stays bit-identical.
	parallel, err := ScoreSnapshot(testSource(t), loaded, ph.TestLo, ph.TestHi, ScoreOpts{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parallel, outcomes) {
		t.Fatal("snapshot scoring differs between worker counts")
	}
	// A group whose feature list disagrees with its model's width is
	// corrupt: it must not load, rather than fail every scored batch.
	narrow := *loaded
	narrow.Groups = append([]GroupSnapshot(nil), loaded.Groups...)
	g0 := &narrow.Groups[0]
	g0.Features = g0.Features[:len(g0.Features)-1]
	if _, err := NewScorer(&narrow, 1); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("width-mismatched snapshot: error = %v, want ErrSnapshotCorrupt", err)
	}
}

func TestSnapshotRejectsRobust(t *testing.T) {
	src := testSource(t)
	ph := StandardPhases(src.Days())[2]
	cfg := testCfg()
	cfg.Robust = &RobustOpts{}
	res, err := RunPhase(src, smart.MC1, allFeats{}, ph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Snapshot(); !errors.Is(err, ErrNotSnapshotable) {
		t.Errorf("robust snapshot error = %v, want ErrNotSnapshotable", err)
	}
	// A zero result is not snapshotable either.
	var zero PhaseResult
	if _, err := zero.Snapshot(); !errors.Is(err, ErrNotSnapshotable) {
		t.Errorf("zero-result snapshot error = %v, want ErrNotSnapshotable", err)
	}
}

func TestLoadSnapshotRejectsBadFormat(t *testing.T) {
	reg := &core.Registry{Dir: t.TempDir()}
	if _, err := reg.Save("bad", []byte(`{"format": 99}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(reg, "bad", 0); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("error = %v, want ErrSnapshotFormat", err)
	}
}

// TestPhaseAdvanceReusesIngestedDays is the append-only acceptance
// check: running successive phases on one engine must not re-extract
// already-ingested days — upstream series fetches stay flat after the
// first phase, and later phases ingest only their new days.
func TestPhaseAdvanceReusesIngestedDays(t *testing.T) {
	src := testSource(t)
	phases := StandardPhases(src.Days())
	e := New(src, testCfg())

	pd0, err := e.PreparePhase(smart.MC1, phases[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pd0.RunSelector(allFeats{}); err != nil {
		t.Fatal(err)
	}
	c0 := e.Store().Counters()
	if c0.SeriesFetches == 0 || c0.DaysIngested == 0 {
		t.Fatalf("phase 0 ingested nothing: %+v", c0)
	}

	pd1, err := e.PreparePhase(smart.MC1, phases[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pd1.RunSelector(allFeats{}); err != nil {
		t.Fatal(err)
	}
	c1 := e.Store().Counters()
	if c1.SeriesFetches != c0.SeriesFetches {
		t.Errorf("phase advance re-fetched upstream series: %d -> %d", c0.SeriesFetches, c1.SeriesFetches)
	}
	if got, want := c1.DaysIngested-c0.DaysIngested, int64(0); got <= want {
		t.Errorf("phase advance ingested %d new days, want > 0", got)
	}
	// The advance ingests at most the horizon delta per drive (drives
	// that died earlier contribute fewer days).
	drives := int64(len(src.DrivesOf(smart.MC1)))
	maxNew := drives * int64(phases[1].TestHi-phases[0].TestHi)
	if got := c1.DaysIngested - c0.DaysIngested; got > maxNew {
		t.Errorf("phase advance ingested %d days, more than the %d-day horizon delta allows", got, maxNew)
	}

	// The ingest stage of each result reports the store's delta.
	var ingest0 int
	for _, st := range pd0.prep {
		if st.Stage == StageIngest {
			ingest0 = st.Rows
		}
	}
	if int64(ingest0) != c0.DaysIngested {
		t.Errorf("phase 0 ingest stage rows = %d, store ingested %d", ingest0, c0.DaysIngested)
	}
}

// TestStageStatsOnResult verifies a phase result carries the full
// stage sequence with plausible row counts.
func TestStageStatsOnResult(t *testing.T) {
	src := testSource(t)
	ph := StandardPhases(src.Days())[2]
	rep := &StageReport{}
	cfg := testCfg()
	cfg.Stages = rep
	res, err := RunPhase(src, smart.MC1, allFeats{}, ph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{StageIngest, StageFeaturize, StageSelect, StageTrain, StageCalibrate, StageScore, StageEvaluate}
	if len(res.StageStats) != len(want) {
		t.Fatalf("stage stats = %+v", res.StageStats)
	}
	for i, st := range res.StageStats {
		if st.Stage != want[i] {
			t.Errorf("stage %d = %s, want %s", i, st.Stage, want[i])
		}
	}
	// Evaluate's rows are the scored drives; Score's are drive-days.
	last := res.StageStats[len(res.StageStats)-1]
	if last.Rows != len(res.Outcomes) {
		t.Errorf("evaluate rows = %d, outcomes = %d", last.Rows, len(res.Outcomes))
	}
	totals := rep.Totals()
	if len(totals) != len(want) {
		t.Errorf("shared report totals = %+v", totals)
	}
}

// ptrModel puts a pointer forest in a scoring group as the parity
// oracle; it is never persisted.
type ptrModel struct{ *forest.Forest }

func (ptrModel) MarshalBinary() ([]byte, error) { return nil, errors.New("oracle model") }

// firstFeats selects the first n features, concentrating a deep
// forest's splits on few columns (and so many cuts per column).
type firstFeats int

func (firstFeats) Name() string { return "first" }

func (n firstFeats) Select(fr *frame.Frame, _ survival.Curve) (SelectorResult, error) {
	return SelectorResult{All: append([]string(nil), fr.Names()[:n]...)}, nil
}

// maxCutsPerFeature is the largest count of distinct split thresholds
// the forest uses on any one feature.
func maxCutsPerFeature(f *forest.Forest) int {
	cuts := map[int]map[float64]bool{}
	for _, t := range f.Trees() {
		e := t.Export()
		for i, ft := range e.Feature {
			if ft < 0 {
				continue
			}
			if cuts[ft] == nil {
				cuts[ft] = map[float64]bool{}
			}
			cuts[ft][e.Threshold[i]+0.0] = true
		}
	}
	most := 0
	for _, cs := range cuts {
		most = max(most, len(cs))
	}
	return most
}

// TestFlatScoringParity pins the engine-level guarantee behind the
// compiled scoring path: a phase scored through the flat models decoded
// from its snapshot is bit-identical, probability by probability, to
// pointer forests refit from the same training frames and config (fits
// are deterministic). The deep case puts more than 254 distinct cuts on
// a feature, so its flat models score through chunked code columns.
func TestFlatScoringParity(t *testing.T) {
	deep := testCfg()
	deep.Forest = forest.Config{NumTrees: 8, MaxDepth: 16, Seed: 1}
	deep.NegEvery = 1
	for _, tc := range []struct {
		name    string
		sel     Selector
		cfg     Config
		chunked bool
	}{
		{"default", allFeats{}, testCfg(), false},
		{"chunked", firstFeats(1), deep, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := testSource(t)
			ph := StandardPhases(src.Days())[2]
			pd, err := PreparePhase(src, smart.MC1, ph, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pd.RunSelector(tc.sel)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := res.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			flatGroups, err := snap.buildGroups(1)
			if err != nil {
				t.Fatal(err)
			}
			ptrGroups := make([]group, len(flatGroups))
			copy(ptrGroups, flatGroups)
			most := 0
			for i := range ptrGroups {
				fr, err := pd.trainFrame(&ptrGroups[i], len(ptrGroups))
				if err != nil {
					t.Fatal(err)
				}
				f, err := forest.Fit(frameCols(fr), fr.Labels(), pd.cfg.Forest)
				if err != nil {
					t.Fatal(err)
				}
				ptrGroups[i].model = ptrModel{f}
				most = max(most, maxCutsPerFeature(f))
			}
			t.Logf("most distinct cuts on one feature: %d", most)
			if chunked := most > 254; chunked != tc.chunked {
				t.Fatalf("most distinct cuts on a feature = %d; chunked = %v, want %v", most, chunked, tc.chunked)
			}
			cfg := Config{Windows: append([]int(nil), snap.Windows...)}
			flatScores, _, err := scorePhase(src, snap.Model, flatGroups, ph.TestLo, ph.TestHi, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ptrScores, _, err := scorePhase(src, snap.Model, ptrGroups, ph.TestLo, ph.TestHi, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(flatScores) == 0 || len(flatScores) != len(ptrScores) {
				t.Fatalf("scored %d drives flat, %d pointer", len(flatScores), len(ptrScores))
			}
			for id, fd := range flatScores {
				pd, ok := ptrScores[id]
				if !ok {
					t.Fatalf("drive %d missing from pointer scores", id)
				}
				if !reflect.DeepEqual(fd.days, pd.days) {
					t.Fatalf("drive %d scored days differ", id)
				}
				for k := range fd.probs {
					if math.Float64bits(fd.probs[k]) != math.Float64bits(pd.probs[k]) {
						t.Fatalf("drive %d day %d: flat %v != pointer %v", id, fd.days[k], fd.probs[k], pd.probs[k])
					}
				}
			}
		})
	}
}
