package engine

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/smart"
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

// calDrive is a validation drive for calibrateThresholds among
// numGroups groups: healthy when failDay < 0, first scored on day
// first, with its highest probability prob on days of group g only.
func calDrive(numGroups, failDay, first int, prob float64, g int) calibDrive {
	cd := calibDrive{failDay: failDay, first: first, groupMax: make([]float64, numGroups)}
	for i := range cd.groupMax {
		cd.groupMax[i] = math.NaN()
	}
	cd.groupMax[g] = prob
	return cd
}

func TestCalibrateThresholds(t *testing.T) {
	drives := []calibDrive{
		calDrive(1, 10, 0, 0.9, 0),
		calDrive(1, 10, 0, 0.6, 0),
		calDrive(1, 10, 0, 0.3, 0),
		calDrive(1, -1, 0, 0.2, 0),
	}
	// Target recall 0.34 over 3 failing drives: 1 of 3 is recall 0.33
	// (short of target), so 2 must be covered; the threshold centers
	// in the feasible interval between the 2nd and 3rd scores.
	if want := (float64(0.6) + 0.3) / 2; calibrateThresholds(drives, 1, 0.34)[0] != want {
		t.Errorf("threshold = %v, want %v", calibrateThresholds(drives, 1, 0.34), want)
	}
	// Target recall 0.67: need 3 of 3 covered -> the lowest failing
	// max, with no lower neighbor to center against.
	if got := calibrateThresholds(drives, 1, 0.67); got[0] != 0.3 {
		t.Errorf("threshold = %v, want 0.3", got)
	}
	// No failing drives: default.
	none := []calibDrive{calDrive(1, -1, 0, 0.2, 0)}
	if got := calibrateThresholds(none, 1, 0.3); got[0] != 0.5 {
		t.Errorf("threshold = %v, want 0.5", got)
	}
}

func TestCalibrateThresholdsPerGroup(t *testing.T) {
	// Group 0: three failing drives with high probabilities. Group 1:
	// three failing drives with low probabilities (a weaker model).
	drives := []calibDrive{
		calDrive(2, 5, 0, 0.9, 0), calDrive(2, 5, 0, 0.8, 0), calDrive(2, 5, 0, 0.7, 0),
		calDrive(2, 5, 0, 0.3, 1), calDrive(2, 5, 0, 0.25, 1), calDrive(2, 5, 0, 0.2, 1),
	}
	got := calibrateThresholds(drives, 2, 0.5)
	if got[0] <= got[1] {
		t.Errorf("group thresholds = %v; group 0 should calibrate higher", got)
	}
	// A group with too few failing drives inherits the pooled value.
	drives = []calibDrive{
		calDrive(2, 5, 0, 0.9, 0), calDrive(2, 5, 0, 0.8, 0), calDrive(2, 5, 0, 0.7, 0),
		calDrive(2, 5, 0, 0.3, 1),
	}
	got = calibrateThresholds(drives, 2, 0.5)
	if got[1] != got[0] && got[1] == 0.3 {
		t.Errorf("sparse group should inherit pooled threshold, got %v", got)
	}
	// A drive scored by both groups counts its best day in the pooled
	// threshold and each group's best day in that group's.
	both := calDrive(2, 5, 0, 0.9, 0)
	both.groupMax[1] = 0.35
	drives = []calibDrive{both, calDrive(2, 5, 0, 0.3, 1), calDrive(2, 5, 0, 0.25, 1)}
	got = calibrateThresholds(drives, 2, 0.3)
	if want := []float64{(float64(0.9) + 0.3) / 2, (float64(0.35) + 0.3) / 2}; got[0] != want[0] || got[1] != want[1] {
		t.Errorf("drive in both groups: thresholds = %v, want %v", got, want)
	}
}

// TestCalibrateThresholdsEdgeCases covers the degenerate calibration
// inputs: no scored drives at all, a group that scored no drives, a
// single failing drive, all-tied probabilities, and a non-positive
// best probability.
func TestCalibrateThresholdsEdgeCases(t *testing.T) {
	// Empty validation set: every group gets the 0.5 default.
	got := calibrateThresholds(nil, 2, 0.3)
	if len(got) != 2 || got[0] != 0.5 || got[1] != 0.5 {
		t.Errorf("empty scores: thresholds = %v, want [0.5 0.5]", got)
	}

	// Group 1 scored no drives at all: it inherits the pooled
	// threshold rather than panicking or defaulting separately.
	drives := []calibDrive{
		calDrive(2, 5, 0, 0.9, 0), calDrive(2, 5, 0, 0.6, 0), calDrive(2, 5, 0, 0.3, 0),
	}
	got = calibrateThresholds(drives, 2, 0.34)
	if got[1] != got[0] {
		t.Errorf("unscored group: thresholds = %v, want group 1 to inherit pooled", got)
	}

	// A single failing drive: threshold is that drive's max (below the
	// minGroupCalibration count, so per-group inherits pooled — which
	// equals the same single value).
	single := []calibDrive{calDrive(1, 5, 0, 0.7, 0)}
	if got := calibrateThresholds(single, 1, 0.3); got[0] != 0.7 {
		t.Errorf("single drive: threshold = %v, want 0.7", got)
	}

	// All probabilities tied: no feasible midpoint interval, threshold
	// sits on the tied value for any target recall.
	tied := []calibDrive{
		calDrive(1, 5, 0, 0.4, 0), calDrive(1, 5, 0, 0.4, 0), calDrive(1, 5, 0, 0.4, 0),
	}
	for _, recall := range []float64{0.1, 0.5, 1.0} {
		if got := calibrateThresholds(tied, 1, recall); got[0] != 0.4 {
			t.Errorf("tied probs at recall %v: threshold = %v, want 0.4", recall, got)
		}
	}

	// All-zero scores (a model that never fires): the floor keeps the
	// threshold strictly positive so healthy all-zero drives do not
	// alarm.
	zeros := []calibDrive{
		calDrive(1, 5, 0, 0, 0), calDrive(1, 5, 0, 0, 0), calDrive(1, 5, 0, 0, 0),
	}
	if got := calibrateThresholds(zeros, 1, 0.3); got[0] != 0.05 {
		t.Errorf("all-zero scores: threshold = %v, want 0.05 floor", got)
	}

	// A failing drive whose failure predates its first scored day is
	// excluded from calibration (it failed before the window).
	past := []calibDrive{calDrive(1, 5, 10, 0.9, 0)}
	if got := calibrateThresholds(past, 1, 0.3); got[0] != 0.5 {
		t.Errorf("pre-window failure: threshold = %v, want 0.5 default", got)
	}
}

// foldDrive is one drive's scored days for foldOutcomes: consecutive
// from the window's first day, with each day's probability and wear.
type foldDrive struct {
	id, failDay int
	probs, mwis []float64
}

// foldOutcomes runs a scorer's outcomes fold over foldPass.
func foldOutcomes(drives []foldDrive, thresholds []float64, split float64, lo, hi int) []DriveOutcome {
	s, buf := foldPass(drives, thresholds, split, lo, hi)
	return s.outcomes(buf)
}

// foldPass returns a scorer and the buffer a pass over the window
// [lo, hi] leaves when it has scored drives, in that inventory order,
// with one group per threshold: a single unbounded group, or a low-
// and a high-wear group split at wear split.
func foldPass(drives []foldDrive, thresholds []float64, split float64, lo, hi int) (*Scorer, *ScoreBuf) {
	groups := []group{{}}
	if len(thresholds) == 2 {
		groups = []group{{mwiBelow: split}, {mwiAtLeast: split}}
	}
	s := newScorer(smart.MC1, groups, thresholds, Config{})
	buf := &ScoreBuf{lo: lo, hi: hi, probs: make([][]float64, len(groups))}
	for _, fd := range drives {
		buf.refs = append(buf.refs, dataset.DriveRef{ID: fd.id, FailDay: fd.failDay})
		wear := make([]float64, lo+len(fd.mwis))
		copy(wear[lo:], fd.mwis)
		buf.views = append(buf.views, wear)
		buf.lastDay = append(buf.lastDay, len(wear)-1)
		for g := range groups {
			buf.offsets = append(buf.offsets, len(buf.probs[g]))
		}
		for k, p := range fd.probs {
			g := s.PickGroup(fd.mwis[k])
			buf.probs[g] = append(buf.probs[g], p)
		}
	}
	return s, buf
}

// TestCalibrationFold pins the pass's calibration input: per scored
// drive, its failure day, its first scored day, and each group's best
// probability, NaN for a group that scored none of its days.
func TestCalibrationFold(t *testing.T) {
	s, buf := foldPass([]foldDrive{
		{id: 3, failDay: 97, probs: []float64{0.2, 0.6, 0.4}, mwis: []float64{10, 50, 11}},
		{id: 1, failDay: -1, probs: []float64{0.3, 0.1}, mwis: []float64{60, 70}},
	}, []float64{0.5, 0.5}, 40, 95, 100)
	got := s.calibration(buf)
	want := []calibDrive{
		{failDay: 97, first: 95, groupMax: []float64{0.4, 0.6}},
		{failDay: -1, first: 95, groupMax: []float64{math.NaN(), 0.3}},
	}
	if len(got) != len(want) {
		t.Fatalf("calibration = %+v, want %+v", got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.failDay != w.failDay || g.first != w.first || len(g.groupMax) != len(w.groupMax) {
			t.Fatalf("drive %d: %+v, want %+v", i, g, w)
		}
		for k := range w.groupMax {
			if math.Float64bits(g.groupMax[k]) != math.Float64bits(w.groupMax[k]) {
				t.Fatalf("drive %d: %+v, want %+v", i, g, w)
			}
		}
	}
}

func TestOutcomesWindowing(t *testing.T) {
	out := foldOutcomes([]foldDrive{
		// Fails 10 days past the phase end: still in the 30-day window.
		{id: 1, failDay: 110, probs: []float64{0.9, 0.1}, mwis: []float64{50, 49}},
		// Fails 40 days past the end: out of scope for this phase.
		{id: 2, failDay: 140, probs: []float64{0.1}, mwis: []float64{70}},
	}, []float64{0.5}, 0, 95, 100)
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

// TestOutcomesEdgeCases covers the degenerate folds: no drives, a
// single never-alarming drive, tied probabilities around the
// threshold, deterministic ID ordering, and per-group thresholds.
func TestOutcomesEdgeCases(t *testing.T) {
	// Empty: no outcomes, no panic.
	if out := foldOutcomes(nil, []float64{0.5}, 0, 95, 100); len(out) != 0 {
		t.Errorf("empty scores produced %d outcomes", len(out))
	}

	// Single healthy drive, all scores below threshold: no alarm, MWI
	// reported at last observed day, MaxProb still tracked.
	out := foldOutcomes([]foldDrive{
		{id: 7, failDay: -1, probs: []float64{0.2, 0.3}, mwis: []float64{40, 41}},
	}, []float64{0.5}, 0, 95, 100)
	if len(out) != 1 || out[0].Pred.FirstAlarmDay != -1 {
		t.Fatalf("healthy drive alarmed: %+v", out)
	}
	if out[0].MWI != 41 || out[0].MaxProb != 0.3 {
		t.Errorf("healthy drive: MWI = %v, MaxProb = %v", out[0].MWI, out[0].MaxProb)
	}

	// A probability exactly at the threshold alarms (>=, not >), and
	// the first such day wins even when a later day ties it.
	out = foldOutcomes([]foldDrive{
		{id: 1, failDay: 120, probs: []float64{0.4, 0.5, 0.5}, mwis: []float64{10, 11, 12}},
	}, []float64{0.5}, 0, 95, 100)
	if out[0].Pred.FirstAlarmDay != 96 || out[0].MWI != 11 {
		t.Errorf("tied threshold: alarm day = %d, MWI = %v, want day 96 MWI 11", out[0].Pred.FirstAlarmDay, out[0].MWI)
	}

	// Outcomes are sorted by drive ID regardless of inventory order.
	var many []foldDrive
	for _, id := range []int{42, 7, 99, 13} {
		many = append(many, foldDrive{id: id, failDay: -1, probs: []float64{0.1}, mwis: []float64{5}})
	}
	out = foldOutcomes(many, []float64{0.5}, 0, 95, 100)
	for i := 1; i < len(out); i++ {
		if out[i-1].Pred.DriveID >= out[i].Pred.DriveID {
			t.Fatalf("outcomes not sorted by drive ID: %v", out)
		}
	}

	// Per-group thresholds: day scored by group 1 uses group 1's
	// threshold.
	out = foldOutcomes([]foldDrive{
		{id: 1, failDay: 120, probs: []float64{0.3, 0.3}, mwis: []float64{10, 50}},
	}, []float64{0.5, 0.25}, 40, 95, 100)
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
