package engine

import (
	"errors"
	"testing"

	"repro/internal/dataset"
)

func TestStandardPhases(t *testing.T) {
	phases := StandardPhases(730)
	if len(phases) != 3 {
		t.Fatalf("phases = %d", len(phases))
	}
	for i, ph := range phases {
		if err := ph.validate(730); err != nil {
			t.Errorf("phase %d invalid: %v", i, err)
		}
		if ph.TestHi-ph.TestLo != 29 {
			t.Errorf("phase %d test span = %d days", i, ph.TestHi-ph.TestLo+1)
		}
		if ph.TrainHi != ph.TestLo-1 || ph.TrainLo != 0 {
			t.Errorf("phase %d train = [%d, %d]", i, ph.TrainLo, ph.TrainHi)
		}
	}
	// Non-overlapping, consecutive, ending at the dataset end.
	if phases[0].TestLo != 730-90 || phases[2].TestHi != 729 {
		t.Errorf("phase layout: %+v", phases)
	}
	if phases[1].TestLo != phases[0].TestHi+1 {
		t.Error("phases overlap")
	}
}

func TestPhaseValidate(t *testing.T) {
	cases := []Phase{
		{TrainLo: -1, TrainHi: 100, TestLo: 101, TestHi: 110},
		{TrainLo: 0, TrainHi: 0, TestLo: 1, TestHi: 2},
		{TrainLo: 0, TrainHi: 100, TestLo: 90, TestHi: 110},  // test inside train
		{TrainLo: 0, TrainHi: 100, TestLo: 101, TestHi: 800}, // past end
	}
	for i, ph := range cases {
		if err := ph.validate(730); !errors.Is(err, ErrBadPhase) {
			t.Errorf("case %d error = %v", i, err)
		}
	}
}

func TestCalibrateThresholds(t *testing.T) {
	mk := func(failed bool, failDay int, maxProb float64, group int) *driveScore {
		ref := dataset.DriveRef{ID: 1, FailDay: -1}
		if failed {
			ref.FailDay = failDay
		}
		return &driveScore{ref: ref, days: []int{0}, probs: []float64{maxProb}, group: []int{group}}
	}
	scores := map[int]*driveScore{
		1: mk(true, 10, 0.9, 0),
		2: mk(true, 10, 0.6, 0),
		3: mk(true, 10, 0.3, 0),
		4: mk(false, 0, 0.2, 0),
	}
	// Target recall 0.34 over 3 failing drives: 1 of 3 is recall 0.33
	// (short of target), so 2 must be covered; the threshold centers
	// in the feasible interval between the 2nd and 3rd scores.
	if want := (float64(0.6) + 0.3) / 2; calibrateThresholds(scores, 1, 0.34)[0] != want {
		t.Errorf("threshold = %v, want %v", calibrateThresholds(scores, 1, 0.34), want)
	}
	// Target recall 0.67: need 3 of 3 covered -> the lowest failing
	// max, with no lower neighbor to center against.
	if got := calibrateThresholds(scores, 1, 0.67); got[0] != 0.3 {
		t.Errorf("threshold = %v, want 0.3", got)
	}
	// No failing drives: default.
	none := map[int]*driveScore{4: mk(false, 0, 0.2, 0)}
	if got := calibrateThresholds(none, 1, 0.3); got[0] != 0.5 {
		t.Errorf("threshold = %v, want 0.5", got)
	}
}

func TestCalibrateThresholdsPerGroup(t *testing.T) {
	mk := func(id int, failDay int, prob float64, group int) *driveScore {
		return &driveScore{
			ref:  dataset.DriveRef{ID: id, FailDay: failDay},
			days: []int{0}, probs: []float64{prob}, group: []int{group},
		}
	}
	// Group 0: three failing drives with high probabilities. Group 1:
	// three failing drives with low probabilities (a weaker model).
	scores := map[int]*driveScore{
		1: mk(1, 5, 0.9, 0), 2: mk(2, 5, 0.8, 0), 3: mk(3, 5, 0.7, 0),
		4: mk(4, 5, 0.3, 1), 5: mk(5, 5, 0.25, 1), 6: mk(6, 5, 0.2, 1),
	}
	got := calibrateThresholds(scores, 2, 0.5)
	if got[0] <= got[1] {
		t.Errorf("group thresholds = %v; group 0 should calibrate higher", got)
	}
	// A group with too few failing drives inherits the pooled value.
	scores = map[int]*driveScore{
		1: mk(1, 5, 0.9, 0), 2: mk(2, 5, 0.8, 0), 3: mk(3, 5, 0.7, 0),
		4: mk(4, 5, 0.3, 1),
	}
	got = calibrateThresholds(scores, 2, 0.5)
	if got[1] != got[0] && got[1] == 0.3 {
		t.Errorf("sparse group should inherit pooled threshold, got %v", got)
	}
}

// TestCalibrateThresholdsEdgeCases covers the degenerate calibration
// inputs: no scored drives at all, a group that scored no drives, a
// single failing drive, all-tied probabilities, and a non-positive
// best probability.
func TestCalibrateThresholdsEdgeCases(t *testing.T) {
	mk := func(id int, failDay int, prob float64, group int) *driveScore {
		return &driveScore{
			ref:  dataset.DriveRef{ID: id, FailDay: failDay},
			days: []int{0}, probs: []float64{prob}, group: []int{group},
		}
	}

	// Empty validation set: every group gets the 0.5 default.
	got := calibrateThresholds(map[int]*driveScore{}, 2, 0.3)
	if len(got) != 2 || got[0] != 0.5 || got[1] != 0.5 {
		t.Errorf("empty scores: thresholds = %v, want [0.5 0.5]", got)
	}

	// Group 1 scored no drives at all: it inherits the pooled
	// threshold rather than panicking or defaulting separately.
	scores := map[int]*driveScore{
		1: mk(1, 5, 0.9, 0), 2: mk(2, 5, 0.6, 0), 3: mk(3, 5, 0.3, 0),
	}
	got = calibrateThresholds(scores, 2, 0.34)
	if got[1] != got[0] {
		t.Errorf("unscored group: thresholds = %v, want group 1 to inherit pooled", got)
	}

	// A single failing drive: threshold is that drive's max (below the
	// minGroupCalibration count, so per-group inherits pooled — which
	// equals the same single value).
	single := map[int]*driveScore{1: mk(1, 5, 0.7, 0)}
	if got := calibrateThresholds(single, 1, 0.3); got[0] != 0.7 {
		t.Errorf("single drive: threshold = %v, want 0.7", got)
	}

	// All probabilities tied: no feasible midpoint interval, threshold
	// sits on the tied value for any target recall.
	tied := map[int]*driveScore{
		1: mk(1, 5, 0.4, 0), 2: mk(2, 5, 0.4, 0), 3: mk(3, 5, 0.4, 0),
	}
	for _, recall := range []float64{0.1, 0.5, 1.0} {
		if got := calibrateThresholds(tied, 1, recall); got[0] != 0.4 {
			t.Errorf("tied probs at recall %v: threshold = %v, want 0.4", recall, got)
		}
	}

	// All-zero scores (a model that never fires): the floor keeps the
	// threshold strictly positive so healthy all-zero drives do not
	// alarm.
	zeros := map[int]*driveScore{
		1: mk(1, 5, 0, 0), 2: mk(2, 5, 0, 0), 3: mk(3, 5, 0, 0),
	}
	if got := calibrateThresholds(zeros, 1, 0.3); got[0] != 0.05 {
		t.Errorf("all-zero scores: threshold = %v, want 0.05 floor", got)
	}

	// A failing drive whose failure predates its first scored day is
	// excluded from calibration (it failed before the window).
	past := map[int]*driveScore{
		1: {ref: dataset.DriveRef{ID: 1, FailDay: 5}, days: []int{10}, probs: []float64{0.9}, group: []int{0}},
	}
	if got := calibrateThresholds(past, 1, 0.3); got[0] != 0.5 {
		t.Errorf("pre-window failure: threshold = %v, want 0.5 default", got)
	}
}

func TestFinalizeOutcomesWindowing(t *testing.T) {
	scores := map[int]*driveScore{
		// Fails 10 days past the phase end: still in the 30-day window.
		1: {ref: dataset.DriveRef{ID: 1, FailDay: 110}, days: []int{95, 96}, probs: []float64{0.9, 0.1}, mwis: []float64{50, 49}, group: []int{0, 0}},
		// Fails 40 days past the end: out of scope for this phase.
		2: {ref: dataset.DriveRef{ID: 2, FailDay: 140}, days: []int{95}, probs: []float64{0.1}, mwis: []float64{70}, group: []int{0}},
	}
	out := finalizeOutcomes(scores, []float64{0.5}, 100)
	if len(out) != 2 {
		t.Fatalf("outcomes = %d", len(out))
	}
	if out[0].Pred.FirstAlarmDay != 95 || out[0].Pred.FailDay != 110 {
		t.Errorf("outcome[0] = %+v", out[0].Pred)
	}
	if out[0].MWI != 50 {
		t.Errorf("outcome[0].MWI = %v, want MWI at alarm", out[0].MWI)
	}
	if out[1].Pred.FailDay != -1 {
		t.Errorf("far-future failure should be treated as healthy, got %+v", out[1].Pred)
	}
	if out[1].MWI != 70 {
		t.Errorf("outcome[1].MWI = %v", out[1].MWI)
	}
}

// TestFinalizeOutcomesEdgeCases covers the degenerate finalization
// inputs: no drives, a single never-alarming drive, tied probabilities
// around the threshold, and deterministic ID ordering.
func TestFinalizeOutcomesEdgeCases(t *testing.T) {
	// Empty: no outcomes, no panic.
	if out := finalizeOutcomes(map[int]*driveScore{}, []float64{0.5}, 100); len(out) != 0 {
		t.Errorf("empty scores produced %d outcomes", len(out))
	}

	// Single healthy drive, all scores below threshold: no alarm, MWI
	// reported at last observed day, MaxProb still tracked.
	one := map[int]*driveScore{
		7: {ref: dataset.DriveRef{ID: 7, FailDay: -1}, days: []int{95, 96}, probs: []float64{0.2, 0.3}, mwis: []float64{40, 41}, group: []int{0, 0}},
	}
	out := finalizeOutcomes(one, []float64{0.5}, 100)
	if len(out) != 1 || out[0].Pred.FirstAlarmDay != -1 {
		t.Fatalf("healthy drive alarmed: %+v", out)
	}
	if out[0].MWI != 41 || out[0].MaxProb != 0.3 {
		t.Errorf("healthy drive: MWI = %v, MaxProb = %v", out[0].MWI, out[0].MaxProb)
	}

	// A probability exactly at the threshold alarms (>=, not >), and
	// the first such day wins even when a later day ties it.
	tie := map[int]*driveScore{
		1: {ref: dataset.DriveRef{ID: 1, FailDay: 120}, days: []int{95, 96, 97}, probs: []float64{0.4, 0.5, 0.5}, mwis: []float64{10, 11, 12}, group: []int{0, 0, 0}},
	}
	out = finalizeOutcomes(tie, []float64{0.5}, 100)
	if out[0].Pred.FirstAlarmDay != 96 || out[0].MWI != 11 {
		t.Errorf("tied threshold: alarm day = %d, MWI = %v, want day 96 MWI 11", out[0].Pred.FirstAlarmDay, out[0].MWI)
	}

	// Outcomes are sorted by drive ID regardless of map order.
	many := map[int]*driveScore{}
	for _, id := range []int{42, 7, 99, 13} {
		many[id] = &driveScore{ref: dataset.DriveRef{ID: id, FailDay: -1}, days: []int{95}, probs: []float64{0.1}, mwis: []float64{5}, group: []int{0}}
	}
	out = finalizeOutcomes(many, []float64{0.5}, 100)
	for i := 1; i < len(out); i++ {
		if out[i-1].Pred.DriveID >= out[i].Pred.DriveID {
			t.Fatalf("outcomes not sorted by drive ID: %v", out)
		}
	}

	// Per-group thresholds: day scored by group 1 uses group 1's
	// threshold.
	grouped := map[int]*driveScore{
		1: {ref: dataset.DriveRef{ID: 1, FailDay: 120}, days: []int{95, 96}, probs: []float64{0.3, 0.3}, mwis: []float64{10, 50}, group: []int{0, 1}},
	}
	out = finalizeOutcomes(grouped, []float64{0.5, 0.25}, 100)
	if out[0].Pred.FirstAlarmDay != 96 {
		t.Errorf("group threshold: alarm day = %d, want 96 (group 1's lower threshold)", out[0].Pred.FirstAlarmDay)
	}
}

func TestBuildGroups(t *testing.T) {
	res := SelectorResult{All: []string{"UCE_R", "MWI_N"}}
	gs, err := buildGroups(res)
	if err != nil || len(gs) != 1 {
		t.Fatalf("groups = %v, %v", gs, err)
	}
	res.Split = &GroupFeatures{ThresholdMWI: 40, Low: []string{"MWI_N"}, High: []string{"UCE_R"}}
	gs, err = buildGroups(res)
	if err != nil || len(gs) != 2 {
		t.Fatalf("split groups = %v, %v", gs, err)
	}
	if gs[0].mwiBelow != 40 || gs[1].mwiAtLeast != 40 {
		t.Errorf("group filters: %+v", gs)
	}
	if _, err := buildGroups(SelectorResult{All: []string{"NOT_A_FEATURE"}}); err == nil {
		t.Error("bad feature name should fail")
	}
}

func TestConfigHash(t *testing.T) {
	a := Config{Seed: 1}
	b := Config{Seed: 1, Workers: 8} // parallelism is not semantics
	if a.Hash() != b.Hash() {
		t.Error("Workers changed the config hash")
	}
	c := Config{Seed: 2}
	if a.Hash() == c.Hash() {
		t.Error("different seeds hashed equal")
	}
	d := Config{Seed: 1, NegEvery: 7} // explicit default == implied default
	if a.Hash() != d.Hash() {
		t.Error("defaulted and explicit configs hashed differently")
	}
}

func TestStageReport(t *testing.T) {
	rep := &StageReport{}
	cfg := Config{Stages: rep}
	var stats []StageStat
	for _, s := range []string{StageScore, StageIngest, StageTrain} {
		if err := timeStage(cfg, &stats, s, func() (int, error) { return 10, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if len(stats) != 3 || stats[0].Stage != StageScore || stats[0].Rows != 10 {
		t.Fatalf("stats = %+v", stats)
	}
	totals := rep.Totals()
	if len(totals) != 3 {
		t.Fatalf("totals = %+v", totals)
	}
	// Canonical order, not insertion order.
	if totals[0].Stage != StageIngest || totals[1].Stage != StageTrain || totals[2].Stage != StageScore {
		t.Errorf("totals order = %v %v %v", totals[0].Stage, totals[1].Stage, totals[2].Stage)
	}
	if rep.String() == "" || (&StageReport{}).String() == "" {
		t.Error("empty report string")
	}
	// Errors propagate and still record the stage.
	wantErr := errors.New("boom")
	if err := timeStage(cfg, &stats, StageEvaluate, func() (int, error) { return 0, wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("error = %v", err)
	}
	if len(stats) != 4 {
		t.Error("failed stage not recorded")
	}
	// A nil report is a no-op collector.
	var nilRep *StageReport
	nilRep.add(StageStat{Stage: StageScore})
	if nilRep.Totals() != nil {
		t.Error("nil report has totals")
	}
}
