package pipeline

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/forest"
	"repro/internal/metrics"
	"repro/internal/selection"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/survival"
)

// smallCfg keeps pipeline tests fast: a modest forest and sparse
// negative sampling. NegEvery 15 (rather than sparser strides) keeps
// the training class ratio close enough to the scoring population's
// that forest probabilities do not saturate near 1, which a
// drive-level max-over-days alarm needs to separate failing drives
// from healthy ones.
func smallCfg() engine.Config {
	return engine.Config{
		Forest:   forest.Config{NumTrees: 20, MaxDepth: 8, Seed: 1},
		NegEvery: 15,
		Seed:     1,
	}
}

var (
	sharedSrc  dataset.FleetSource
	sharedInit bool
)

// smallSource returns a shared fleet: pipeline tests are read-only
// with respect to the source, and fleet construction plus series
// generation dominate test time.
func smallSource(t *testing.T) dataset.FleetSource {
	t.Helper()
	if !sharedInit {
		f, err := simulate.New(simulate.Config{TotalDrives: 1600, Seed: 21, AFRScale: 3})
		if err != nil {
			t.Fatal(err)
		}
		sharedSrc = dataset.FleetSource{Fleet: f}
		sharedInit = true
	}
	return sharedSrc
}

func TestRunPhaseNoSelection(t *testing.T) {
	src := smallSource(t)
	spec := smart.MustSpec(smart.MC1)
	// The alarm threshold targets 30% recall, so one phase with only a
	// handful of failing drives can miss all of them by chance; the
	// model must catch at least one failure pooled over the three
	// standard phases at AFRScale 3.
	var tp, positives int
	for _, ph := range engine.StandardPhases(src.Days()) {
		res, err := engine.RunPhase(src, smart.MC1, NoSelection{}, ph, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		if res.Selector != "No feature selection" {
			t.Errorf("selector = %q", res.Selector)
		}
		if len(res.Selection.All) != 2*len(spec.Attrs) {
			t.Errorf("no-selection kept %d features, want all %d", len(res.Selection.All), 2*len(spec.Attrs))
		}
		if len(res.Outcomes) == 0 {
			t.Fatal("no outcomes")
		}
		if len(res.Thresholds) == 0 {
			t.Fatal("no thresholds")
		}
		for _, thr := range res.Thresholds {
			if thr <= 0 || thr > 1 {
				t.Errorf("threshold = %v", thr)
			}
		}
		c := res.Confusion
		if c.TP+c.FP+c.TN+c.FN != len(res.Outcomes) {
			t.Errorf("confusion total %d != outcomes %d", c.TP+c.FP+c.TN+c.FN, len(res.Outcomes))
		}
		tp += c.TP
		positives += c.TP + c.FN
	}
	t.Logf("%d of %d failing drives caught", tp, positives)
	if tp == 0 {
		t.Errorf("no true positives among %d failing drives over all phases", positives)
	}
}

func TestWorkersInvariance(t *testing.T) {
	// The Workers knob bounds parallelism only: frame chunks
	// concatenate in inventory order, forest bootstraps and seeds are
	// pre-drawn, and batch scoring accumulates per row in tree order,
	// so a phase's entire result must be bit-identical serial vs
	// parallel.
	f, err := simulate.New(simulate.Config{TotalDrives: 700, Seed: 5, AFRScale: 4})
	if err != nil {
		t.Fatal(err)
	}
	src := dataset.FleetSource{Fleet: f}
	ph := engine.StandardPhases(src.Days())[2]
	run := func(workers int) engine.PhaseResult {
		cfg := engine.Config{
			Forest:   forest.Config{NumTrees: 10, MaxDepth: 6, Seed: 1},
			NegEvery: 20,
			Workers:  workers,
			Seed:     1,
		}
		res, err := engine.RunPhase(src, smart.MC1, NoSelection{}, ph, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(6)
	if !reflect.DeepEqual(serial.Thresholds, parallel.Thresholds) {
		t.Errorf("thresholds: serial %v != parallel %v", serial.Thresholds, parallel.Thresholds)
	}
	if serial.Confusion != parallel.Confusion {
		t.Errorf("confusion: serial %+v != parallel %+v", serial.Confusion, parallel.Confusion)
	}
	if !reflect.DeepEqual(serial.Outcomes, parallel.Outcomes) {
		t.Error("per-drive outcomes differ between worker counts")
	}
}

func TestRunPhaseWEFR(t *testing.T) {
	src := smallSource(t)
	ph := engine.StandardPhases(src.Days())[2]
	res, err := engine.RunPhase(src, smart.MC1, WEFR{}, ph, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	spec := smart.MustSpec(smart.MC1)
	if len(res.Selection.All) >= 2*len(spec.Attrs) {
		t.Errorf("WEFR kept all %d features; should prune", len(res.Selection.All))
	}
	// MC1 has wear failures: the wear split should engage.
	if res.Selection.Split == nil {
		t.Error("WEFR on MC1 should produce a wear split")
	} else {
		thr := res.Selection.Split.ThresholdMWI
		if thr < 5 || thr > 60 {
			t.Errorf("split threshold = %v", thr)
		}
	}
	if res.Confusion.TP == 0 {
		t.Errorf("WEFR found no failures: %+v", res.Confusion)
	}
}

func TestRunPhaseSingleRanker(t *testing.T) {
	src := smallSource(t)
	ph := engine.StandardPhases(src.Days())[2]
	res, err := engine.RunPhase(src, smart.MB1, SingleRanker{Ranker: selection.Pearson{}, Percent: 0.3}, ph, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	spec := smart.MustSpec(smart.MB1)
	want := int(float64(2*len(spec.Attrs)) * 0.3)
	if len(res.Selection.All) != want {
		t.Errorf("kept %d features, want %d", len(res.Selection.All), want)
	}
	if res.Selection.Split != nil {
		t.Error("single ranker should not split")
	}
}

func TestSelectorNames(t *testing.T) {
	if (WEFR{}).Name() != "WEFR" {
		t.Error("WEFR name")
	}
	if (WEFR{NoUpdate: true}).Name() != "WEFR (No update)" {
		t.Error("WEFR no-update name")
	}
	if (SingleRanker{Ranker: selection.JIndex{}}).Name() != "J-index" {
		t.Error("single ranker name")
	}
}

func TestRunMergesPhases(t *testing.T) {
	src := smallSource(t)
	phases := engine.StandardPhases(src.Days())[1:]
	results, total, err := engine.Run(src, smart.MC1, NoSelection{}, phases, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	var want metrics.Confusion
	for _, r := range results {
		want.Merge(r.Confusion)
	}
	if total != want {
		t.Errorf("total %+v != merged %+v", total, want)
	}
}

func TestEvaluateLowMWI(t *testing.T) {
	outcomes := []engine.DriveOutcome{
		{Pred: metrics.DrivePrediction{DriveID: 1, FirstAlarmDay: 5, FailDay: 20}, MWI: 20},
		{Pred: metrics.DrivePrediction{DriveID: 2, FirstAlarmDay: -1, FailDay: -1}, MWI: 80},
	}
	low := engine.EvaluateLowMWI(outcomes, 50)
	if low.TP != 1 || low.TN != 0 {
		t.Errorf("low confusion = %+v", low)
	}
	all := engine.EvaluateOutcomes(outcomes)
	if all.TP != 1 || all.TN != 1 {
		t.Errorf("all confusion = %+v", all)
	}
}

func TestWEFRNoUpdateIgnoresCurve(t *testing.T) {
	src := smallSource(t)
	fr, err := dataset.Frame(src, dataset.FrameOpts{Model: smart.MC1, DayHi: 500, NegEvery: 15})
	if err != nil {
		t.Fatal(err)
	}
	curve, err := survival.Compute(src, smart.MC1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := WEFR{NoUpdate: true}.Select(fr, curve)
	if err != nil {
		t.Fatal(err)
	}
	if res.Split != nil {
		t.Error("WEFR (No update) must not split")
	}
}

func TestRunPropagatesPhaseErrors(t *testing.T) {
	src := smallSource(t)
	bad := []engine.Phase{{TrainLo: 0, TrainHi: 10, TestLo: 5, TestHi: 20}}
	if _, _, err := engine.Run(src, smart.MC1, NoSelection{}, bad, smallCfg()); !errors.Is(err, engine.ErrBadPhase) {
		t.Errorf("error = %v, want ErrBadPhase", err)
	}
}

func TestPreparePhaseNoSignal(t *testing.T) {
	// A training window before any failures has no positive samples.
	src := smallSource(t)
	ph := engine.Phase{TrainLo: 0, TrainHi: 40, TestLo: 41, TestHi: 50}
	_, err := engine.PreparePhase(src, smart.MB2, ph, smallCfg())
	if err != nil && !errors.Is(err, engine.ErrNoTrainingSignal) {
		// Depending on the seed a failure may exist this early; only
		// the error identity is under test when it fires.
		t.Errorf("error = %v, want ErrNoTrainingSignal or nil", err)
	}
}

func TestAUCFromOutcomes(t *testing.T) {
	outcomes := []engine.DriveOutcome{
		{Pred: metrics.DrivePrediction{DriveID: 1, FailDay: 10}, MaxProb: 0.9},
		{Pred: metrics.DrivePrediction{DriveID: 2, FailDay: 12}, MaxProb: 0.8},
		{Pred: metrics.DrivePrediction{DriveID: 3, FailDay: -1}, MaxProb: 0.2},
		{Pred: metrics.DrivePrediction{DriveID: 4, FailDay: -1}, MaxProb: 0.1},
	}
	auc, err := engine.AUC(outcomes)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 1 {
		t.Errorf("AUC = %v, want 1 (perfect ranking)", auc)
	}
	// Single class errs.
	if _, err := engine.AUC(outcomes[:2]); err == nil {
		t.Error("single-class AUC should fail")
	}
}

// TestHistExactEquivalence pins the accuracy contract of histogram
// split search at pipeline level: the full WEFR phase must select
// nearly the same features (overlap >= 0.9) and reach the same
// drive-level ranking quality (AUC within 0.01) as exact presorted
// split search did on the same fixture. The exact run's selection and
// AUC are pinned as literals, recorded when exact search was still the
// default grower of the rankers and the forest.
func TestHistExactEquivalence(t *testing.T) {
	exactSel := []string{
		"OCE_R", "OCE_N", "ARS_R", "ARS_N", "UCE_R", "UCE_N", "CMDT_R", "CMDT_N",
		"RER_R", "RSC_R", "MWI_R", "RSC_N", "POH_R", "MWI_N", "RER_N",
	}
	const exactAUC = 0.99131274131274139

	src := smallSource(t)
	ph := engine.StandardPhases(src.Days())[2]
	res, err := engine.RunPhase(src, smart.MC1, WEFR{}, ph, smallCfg())
	if err != nil {
		t.Fatal(err)
	}

	inter := 0
	in := make(map[string]bool, len(exactSel))
	for _, f := range exactSel {
		in[f] = true
	}
	for _, f := range res.Selection.All {
		if in[f] {
			inter++
		}
	}
	denom := max(len(exactSel), len(res.Selection.All))
	t.Logf("selection %v", res.Selection.All)
	if overlap := float64(inter) / float64(denom); overlap < 0.9 {
		t.Errorf("selection overlap = %v (%d of %d), want >= 0.9\nexact: %v\nhist:  %v",
			overlap, inter, denom, exactSel, res.Selection.All)
	}

	auc, err := engine.AUC(res.Outcomes)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("overlap %d of %d, AUC %.6f (exact %.6f)", inter, denom, auc, exactAUC)
	if d := math.Abs(exactAUC - auc); d > 0.01 {
		t.Errorf("AUC diverged: exact %v, hist %v (|delta| = %v, want <= 0.01)", exactAUC, auc, d)
	}
}
