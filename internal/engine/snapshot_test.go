package engine

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
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
	scorer, err := NewScorer(loaded, 0)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := scorer.Score(testSource(t), ph.TestLo, ph.TestHi)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outcomes, res.Outcomes) {
		t.Fatal("snapshot-scored outcomes differ from the in-memory run")
	}

	// Scoring with a different worker count stays bit-identical.
	if scorer, err = NewScorer(loaded, 5); err != nil {
		t.Fatal(err)
	}
	parallel, err := scorer.Score(testSource(t), ph.TestLo, ph.TestHi)
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

// TestDecodeSnapshotRefusesNonForestGroups pins the model-family tag:
// a format-2 snapshot whose group is tagged as the removed
// gradient-boosted family, or carries no tag, is refused with
// ErrSnapshotFormat before any scoring, although its payload is a
// valid forest that would otherwise decode and score.
func TestDecodeSnapshotRefusesNonForestGroups(t *testing.T) {
	var absent map[string]any
	if err := json.Unmarshal(gbdtSnapshot(t), &absent); err != nil {
		t.Fatal(err)
	}
	delete(absent["groups"].([]any)[0].(map[string]any), "predictor")
	noTag, err := json.Marshal(absent)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"gbdt", gbdtSnapshot(t), "gradient-boosted"},
		{"absent", noTag, "predictor 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSnapshot(tc.data)
			if !errors.Is(err, ErrSnapshotFormat) {
				t.Fatalf("error = %v, want ErrSnapshotFormat", err)
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "retrain") {
				t.Errorf("error %q does not name %q and say retrain", err, tc.want)
			}
		})
	}
	// A snapshot built in memory is checked again when its groups are
	// decoded for scoring.
	snap := forestSnapshot(t)
	snap.Groups[0].Predictor = predictorGBDT
	if _, err := NewScorer(&snap, 1); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("NewScorer error = %v, want ErrSnapshotFormat", err)
	}
	snap.Groups[0].Predictor = predictorForest
	if _, err := NewScorer(&snap, 1); err != nil {
		t.Errorf("forest-tagged snapshot: %v", err)
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

// TestFlatScoringParity pins the engine-level guarantee behind the
// compiled scoring path: a phase scored through the flat models decoded
// from its snapshot is bit-identical, probability by probability, to
// pointer forests refit from the same training frames and config (fits
// are deterministic) scoring the frames the frame-path reference
// (frameScore) builds for each group. Histogram binning caps a forest at 255 distinct cuts per
// feature, so chunked code columns (more than 254 cuts) are covered in
// internal/flat by TestChunkedCutsBitExact, payload round trip
// included.
func TestFlatScoringParity(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		src := testSource(t)
		ph := StandardPhases(src.Days())[2]
		pd, err := PreparePhase(src, smart.MC1, ph, testCfg())
		if err != nil {
			t.Fatal(err)
		}
		res, err := pd.RunSelector(allFeats{})
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
		cfg := Config{Windows: append([]int(nil), snap.Windows...)}
		flatScores, _, err := frameScore(src, newScorer(snap.Model, flatGroups, snap.Thresholds, cfg), ph.TestLo, ph.TestHi)
		if err != nil {
			t.Fatal(err)
		}
		type driveDay struct{ drive, day int }
		ptrScores := make(map[driveDay]float64)
		trainFrs, err := trainFrames(pd.src, pd.model, flatGroups, ph.TrainLo, pd.fitHi, pd.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range flatGroups {
			trainFr := trainFrs[i]
			f, err := forest.Fit(frameCols(trainFr), trainFr.Labels(), pd.cfg.Forest)
			if err != nil {
				t.Fatal(err)
			}
			fr, err := refFrame(src, snap.Model, groupRef(g, ph.TestLo, ph.TestHi, 1, cfg.Windows, nil))
			if err != nil {
				t.Fatal(err)
			}
			if fr == nil {
				continue
			}
			probs, err := f.PredictProbaAll(frameCols(fr))
			if err != nil {
				t.Fatal(err)
			}
			for r, p := range probs {
				m := fr.Meta(r)
				ptrScores[driveDay{m.DriveID, m.Day}] = p
			}
		}
		scored := 0
		for id, fd := range flatScores {
			for _, r := range fd.rows {
				want, ok := ptrScores[driveDay{id, r.day}]
				if !ok {
					t.Fatalf("drive %d day %d missing from pointer scores", id, r.day)
				}
				if math.Float64bits(r.prob) != math.Float64bits(want) {
					t.Fatalf("drive %d day %d: flat %v != pointer %v", id, r.day, r.prob, want)
				}
				scored++
			}
		}
		if scored == 0 || scored != len(ptrScores) {
			t.Fatalf("scored %d drive-days flat, %d pointer", scored, len(ptrScores))
		}
	})
}
