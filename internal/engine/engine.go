// Package engine is the staged implementation of the offline SSD
// failure-prediction workflow (Section V-A of the WEFR paper). It
// re-expresses the former pipeline monolith as composable stages —
//
//	Ingest → Featurize → Select → Train → Calibrate → Score → Evaluate
//
// — running over the append-only fleet store of internal/store: each
// phase ingests only the days not yet in the store, builds its frames
// from an immutable Snapshot view, and reports per-stage timing and
// row counts. The trained artifact of a phase (feature selection,
// per-group models compiled to the flat kernel of internal/flat,
// calibrated thresholds, config hash) is capturable as a versioned,
// JSON-serializable ModelSnapshot that scores new days without
// retraining. The concrete selection strategies live in
// internal/pipeline.
package engine

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/forest"
	"repro/internal/frame"
	"repro/internal/gbdt"
	"repro/internal/hist"
	"repro/internal/metrics"
	"repro/internal/smart"
	"repro/internal/store"
	"repro/internal/survival"
)

// Crash points for the process-level fault harness (internal/faults):
// inert unless armed via WEFR_CRASHPOINT, each marks the instant just
// after a stage whose work the journal must make recoverable.
var (
	crashAfterIngest    = faults.RegisterCrashSite("ingest")
	crashAfterTrain     = faults.RegisterCrashSite("train")
	crashAfterCalibrate = faults.RegisterCrashSite("calibrate")
	crashAfterSave      = faults.RegisterCrashSite("snapshot-save")
)

// Errors returned by the engine.
var (
	// ErrBadPhase indicates an invalid phase layout.
	ErrBadPhase = errors.New("pipeline: bad phase")
	// ErrNoTrainingSignal indicates a training period without both
	// classes.
	ErrNoTrainingSignal = errors.New("pipeline: no positive samples in training period")
)

// Config parameterizes the prediction engine. The zero value uses the
// paper's settings via withDefaults.
type Config struct {
	// Forest configures the prediction model; zero NumTrees means the
	// paper's 100 trees with maximum depth 13.
	Forest forest.Config
	// NegEvery is the negative-sample day stride in training and
	// validation frames; 0 means 7.
	NegEvery int
	// TargetRecall is the drive-level recall the alarm threshold is
	// calibrated to on the validation period, making methods
	// comparable at fixed recall as in Table VI; 0 means 0.3.
	TargetRecall float64
	// ValFraction is the fraction of the training period reserved for
	// validation (the paper's 8:2 split); 0 means 0.2.
	ValFraction float64
	// Windows are the feature-generation windows; nil means 3 and 7
	// days.
	Windows []int
	// Predictor selects the prediction-model family; 0 means the
	// paper's Random Forest.
	Predictor Predictor
	// GBDT configures the boosted-tree predictor when Predictor is
	// PredictorGBDT; zero NumRounds means gbdt.DefaultConfig.
	GBDT gbdt.Config
	// SplitMethod is ignored: the tree learners always use histogram-
	// binned split search. The field is kept only because perfbench,
	// which changes only together with the benchmark definition, still
	// reads it.
	SplitMethod hist.SplitMethod
	// Workers bounds the engine's parallelism — store ingest, frame
	// extraction across drives, forest fitting, and batch scoring; 0
	// means GOMAXPROCS. Results are bit-identical for any value (set 1
	// to force serial execution). An explicit Forest.Workers takes
	// precedence for the forest itself.
	Workers int
	// Seed drives the prediction model's randomness.
	Seed int64
	// Robust, when non-nil, hardens the run against dirty data (see
	// RobustOpts). Nil reproduces the legacy pipeline exactly.
	Robust *RobustOpts
	// Stages, when non-nil, accumulates per-stage timing and row
	// counts across every phase the engine runs with this config. Per
	// -phase stats are also attached to each PhaseResult.
	Stages *StageReport
}

func (c Config) predictor() Predictor {
	if c.Predictor == 0 {
		return PredictorForest
	}
	return c.Predictor
}

func (c Config) withDefaults() Config {
	if c.Forest.NumTrees == 0 {
		c.Forest = forest.DefaultConfig()
	}
	if c.Forest.Seed == 0 {
		c.Forest.Seed = c.Seed + 7919
	}
	if c.Forest.Workers == 0 {
		c.Forest.Workers = c.Workers
	}
	if c.NegEvery <= 0 {
		c.NegEvery = 7
	}
	if c.TargetRecall <= 0 {
		c.TargetRecall = 0.3
	}
	if c.ValFraction <= 0 || c.ValFraction >= 1 {
		c.ValFraction = 0.2
	}
	return c
}

// Phase is one train/test layout: the model trains on [TrainLo,
// TrainHi] (the tail of which is the validation period) and predicts
// daily over [TestLo, TestHi].
type Phase struct {
	TrainLo, TrainHi int
	TestLo, TestHi   int
}

func (p Phase) validate(days int) error {
	if p.TrainLo < 0 || p.TrainHi >= days || p.TrainLo >= p.TrainHi {
		return fmt.Errorf("%w: train [%d, %d] in %d days", ErrBadPhase, p.TrainLo, p.TrainHi, days)
	}
	if p.TestLo <= p.TrainHi || p.TestHi >= days || p.TestLo > p.TestHi {
		return fmt.Errorf("%w: test [%d, %d] after train end %d in %d days", ErrBadPhase, p.TestLo, p.TestHi, p.TrainHi, days)
	}
	return nil
}

// StandardPhases returns the paper's evaluation layout: the last three
// 30-day months are three non-overlapping testing phases, each trained
// on all preceding days.
func StandardPhases(days int) []Phase {
	const month = 30
	var out []Phase
	for k := 3; k >= 1; k-- {
		testLo := days - k*month
		testHi := testLo + month - 1
		out = append(out, Phase{
			TrainLo: 0, TrainHi: testLo - 1,
			TestLo: testLo, TestHi: testHi,
		})
	}
	return out
}

// DriveOutcome is one drive's result in a testing phase, extended with
// the wear level used for per-group reporting (Exp#3).
type DriveOutcome struct {
	// Pred is the drive-level prediction record.
	Pred metrics.DrivePrediction
	// MWI is the drive's MWI_N at its first alarm, or at its last
	// observed test day when no alarm fired.
	MWI float64
	// MaxProb is the drive's highest predicted failure probability in
	// the phase, for threshold-free analyses (ROC/AUC).
	MaxProb float64
}

// PhaseResult is the evaluation of one selector on one phase.
type PhaseResult struct {
	// Selector is the strategy name.
	Selector string
	// Model is the drive model evaluated.
	Model smart.ModelID
	// Selection records the chosen features.
	Selection SelectorResult
	// Thresholds are the calibrated per-group alarm thresholds (one
	// entry when there is no wear split).
	Thresholds []float64
	// Outcomes holds one entry per drive observed in the test phase.
	Outcomes []DriveOutcome
	// Confusion is the drive-level confusion over Outcomes.
	Confusion metrics.Confusion
	// StageStats reports per-stage timing and row counts for the run
	// that produced this result, in execution order.
	StageStats []StageStat

	// Retained for Snapshot: the trained groups, the config that
	// trained them, and the last training day.
	groups  []group
	cfg     Config
	trainHi int
}

// group is an internal training/scoring unit: a feature set plus an
// optional MWI filter.
type group struct {
	feats      []smart.Feature
	names      []string
	mwiBelow   float64
	mwiAtLeast float64
	model      groupModel
}

// Engine runs phases over one append-only fleet store. Create with
// New; the zero value is unusable. Successive phases on the same
// engine reuse every already-ingested day (see store.Counters).
type Engine struct {
	st  *store.Store
	cfg Config
}

// New builds an engine over the given source. When src is already a
// store.Snapshot, its owning store is reused — including all ingested
// data — instead of being re-wrapped; any other source is wrapped in a
// fresh empty store.
func New(src dataset.Source, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	var st *store.Store
	if snap, ok := src.(*store.Snapshot); ok {
		st = snap.Store()
	} else {
		st = store.Open(src, store.Options{Workers: cfg.Workers})
	}
	return &Engine{st: st, cfg: cfg}
}

// Store exposes the engine's fleet store (for ingest-counter
// assertions and snapshot access).
func (e *Engine) Store() *store.Store { return e.st }

// PhaseData is the selector-independent state of one (model, phase)
// evaluation: the selection frame, the survival curve as of the end of
// training, and the fit/validation day spans. Preparing it once and
// evaluating many selectors against it (Exp#1's percentage sweeps)
// avoids rebuilding the frame and curve per selector.
type PhaseData struct {
	// SelFrame is the original-feature training frame selectors rank.
	SelFrame *frame.Frame
	// Curve is the survival curve computed from training data only.
	Curve survival.Curve

	src   dataset.Source
	model smart.ModelID
	ph    Phase
	cfg   Config
	fitHi int
	valLo int
	prep  []StageStat // Ingest + Featurize stats, copied into results
}

// PreparePhase builds the selector-independent phase state: the
// Ingest stage (advance the store horizon through the phase's test
// end, reusing already-ingested days) and the Featurize stage (the
// selection frame and the as-of-training survival curve).
func (e *Engine) PreparePhase(model smart.ModelID, ph Phase) (*PhaseData, error) {
	cfg := e.cfg
	if err := ph.validate(e.st.SourceDays()); err != nil {
		return nil, err
	}
	trainLen := ph.TrainHi - ph.TrainLo + 1
	valLen := int(float64(trainLen) * cfg.ValFraction)
	if valLen < dataset.PredictionWindow {
		valLen = min(dataset.PredictionWindow, trainLen/2)
	}
	valLo := ph.TrainHi - valLen + 1
	fitHi := valLo - 1

	pd := &PhaseData{model: model, ph: ph, cfg: cfg, fitHi: fitHi, valLo: valLo}

	before := e.st.Counters()
	err := timeStage(cfg, &pd.prep, StageIngest, func() (int, error) {
		if err := e.st.Track(model); err != nil {
			return 0, fmt.Errorf("pipeline: ingest: %w", err)
		}
		if err := e.st.AppendThrough(ph.TestHi); err != nil {
			return 0, fmt.Errorf("pipeline: ingest: %w", err)
		}
		pd.src = e.st.Snapshot()
		return int(e.st.Counters().DaysIngested - before.DaysIngested), nil
	})
	if err != nil {
		return nil, err
	}
	if n := int(e.st.Counters().FetchRetries - before.FetchRetries); n > 0 {
		pd.prep[len(pd.prep)-1].Retries = n
		cfg.Stages.addRetries(StageIngest, n)
	}
	faults.CrashPoint(crashAfterIngest)

	err = timeStage(cfg, &pd.prep, StageFeaturize, func() (int, error) {
		selFrame, err := dataset.Frame(pd.src, dataset.FrameOpts{
			Model: model, DayLo: ph.TrainLo, DayHi: fitHi, NegEvery: cfg.NegEvery,
			Workers: cfg.Workers, Sanitize: cfg.sanitizeOpts(false),
		})
		if err != nil {
			return 0, fmt.Errorf("pipeline: selection frame: %w", err)
		}
		if selFrame.Positives() == 0 {
			return 0, ErrNoTrainingSignal
		}
		curve, err := survival.ComputeAsOf(pd.src, model, 0, ph.TrainHi)
		if err != nil {
			return 0, fmt.Errorf("pipeline: survival curve: %w", err)
		}
		pd.SelFrame = selFrame
		pd.Curve = curve
		return selFrame.NumRows(), nil
	})
	if err != nil {
		return nil, err
	}
	return pd, nil
}

// PreparePhase builds the selector-independent phase state over a
// one-off engine for src.
func PreparePhase(src dataset.Source, model smart.ModelID, ph Phase, cfg Config) (*PhaseData, error) {
	return New(src, cfg).PreparePhase(model, ph)
}

// RunSelector selects features with sel (the Select stage) and
// evaluates them.
func (pd *PhaseData) RunSelector(sel Selector) (PhaseResult, error) {
	stats := append([]StageStat(nil), pd.prep...)
	var selRes SelectorResult
	err := timeStage(pd.cfg, &stats, StageSelect, func() (int, error) {
		var err error
		selRes, err = sel.Select(pd.SelFrame, pd.Curve)
		return len(selRes.All), err
	})
	if err != nil {
		return PhaseResult{}, err
	}
	if rep := pd.cfg.report(); rep != nil {
		ctx := fmt.Sprintf("model %v test [%d, %d]", pd.model, pd.ph.TestLo, pd.ph.TestHi)
		for _, entry := range selRes.Dropped {
			rep.NoteRankerDropped(ctx, entry)
		}
		for _, note := range selRes.Notes {
			rep.NoteFallback(ctx + ": " + note)
		}
	}
	return pd.runSelection(sel.Name(), selRes, stats)
}

// RunSelection trains per-wear-group models for an already-chosen
// feature assignment, calibrates the alarm threshold on the validation
// period, and evaluates drive-level first alarms on the test phase.
func (pd *PhaseData) RunSelection(name string, selRes SelectorResult) (PhaseResult, error) {
	return pd.runSelection(name, selRes, append([]StageStat(nil), pd.prep...))
}

// trainFrame extracts group g's training frame over the fit period,
// one of nGroups wear groups.
func (pd *PhaseData) trainFrame(g *group, nGroups int) (*frame.Frame, error) {
	src, model, ph, cfg := pd.src, pd.model, pd.ph, pd.cfg
	// Wear groups are subsets with inherently higher positive density;
	// denser negative sampling keeps the class ratio (and with it the
	// forest's probability scale) closer to the full population's.
	groupNegEvery := cfg.NegEvery
	if nGroups > 1 {
		groupNegEvery = max(1, cfg.NegEvery/5)
	}
	fr, err := dataset.Frame(src, dataset.FrameOpts{
		Model: model, DayLo: ph.TrainLo, DayHi: pd.fitHi,
		NegEvery: groupNegEvery, Features: g.feats, Expand: true,
		Windows: cfg.Windows, MWIBelow: g.mwiBelow, MWIAtLeast: g.mwiAtLeast,
		Workers: cfg.Workers, Sanitize: cfg.sanitizeOpts(true),
	})
	if err != nil && !errors.Is(err, dataset.ErrNoSamples) {
		return nil, fmt.Errorf("pipeline: training frame: %w", err)
	}
	if err == nil && fr.Positives() > 0 {
		return fr, nil
	}
	// Degenerate group: train on the whole population with the group's
	// features instead.
	fr, err = dataset.Frame(src, dataset.FrameOpts{
		Model: model, DayLo: ph.TrainLo, DayHi: pd.fitHi,
		NegEvery: cfg.NegEvery, Features: g.feats, Expand: true,
		Windows: cfg.Windows, Workers: cfg.Workers,
		Sanitize: cfg.sanitizeOpts(true),
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: fallback training frame: %w", err)
	}
	if fr.Positives() == 0 {
		return nil, ErrNoTrainingSignal
	}
	return fr, nil
}

// runSelection is the Train → Calibrate → Score → Evaluate stage
// sequence.
func (pd *PhaseData) runSelection(name string, selRes SelectorResult, stats []StageStat) (PhaseResult, error) {
	src, model, ph, cfg := pd.src, pd.model, pd.ph, pd.cfg
	groups, err := buildGroups(selRes)
	if err != nil {
		return PhaseResult{}, err
	}

	// Train a model per group on the fit period; groups without
	// signal fall back to the all-drives feature set and population.
	err = timeStage(cfg, &stats, StageTrain, func() (int, error) {
		rows := 0
		for gi := range groups {
			g := &groups[gi]
			trainFr, err := pd.trainFrame(g, len(groups))
			if err != nil {
				return rows, err
			}
			rows += trainFr.NumRows()
			g.model, err = fitModel(trainFr, cfg)
			if err != nil {
				return rows, fmt.Errorf("pipeline: fit group model: %w", err)
			}
		}
		return rows, nil
	})
	if err != nil {
		return PhaseResult{}, err
	}
	faults.CrashPoint(crashAfterTrain)

	// Calibrate the alarm threshold to the target recall on the
	// validation period.
	var thresholds []float64
	err = timeStage(cfg, &stats, StageCalibrate, func() (int, error) {
		valOutcomes, rows, err := scorePhase(src, model, groups, pd.valLo, ph.TrainHi, cfg)
		if err != nil {
			return rows, fmt.Errorf("pipeline: validation scoring: %w", err)
		}
		thresholds = calibrateThresholds(valOutcomes, len(groups), cfg.TargetRecall)
		return rows, nil
	})
	if err != nil {
		return PhaseResult{}, err
	}
	faults.CrashPoint(crashAfterCalibrate)

	// Score the test phase.
	var testOutcomes map[int]*driveScore
	err = timeStage(cfg, &stats, StageScore, func() (int, error) {
		var rows int
		var err error
		testOutcomes, rows, err = scorePhase(src, model, groups, ph.TestLo, ph.TestHi, cfg)
		if err != nil {
			return rows, fmt.Errorf("pipeline: test scoring: %w", err)
		}
		return rows, nil
	})
	if err != nil {
		return PhaseResult{}, err
	}

	// Evaluate drive-level first alarms.
	var outcomes []DriveOutcome
	var confusion metrics.Confusion
	_ = timeStage(cfg, &stats, StageEvaluate, func() (int, error) {
		outcomes = finalizeOutcomes(testOutcomes, thresholds, ph.TestHi)
		confusion = EvaluateOutcomes(outcomes)
		return len(outcomes), nil
	})
	cfg.report().NotePhase(true)
	return PhaseResult{
		Selector:   name,
		Model:      model,
		Selection:  selRes,
		Thresholds: thresholds,
		Outcomes:   outcomes,
		Confusion:  confusion,
		StageStats: stats,
		groups:     groups,
		cfg:        cfg,
		trainHi:    ph.TrainHi,
	}, nil
}

// RunPhase executes the full staged workflow for one selector, model,
// and phase: Ingest and Featurize (PreparePhase), Select, then Train,
// Calibrate, Score, and Evaluate.
func RunPhase(src dataset.Source, model smart.ModelID, sel Selector, ph Phase, cfg Config) (PhaseResult, error) {
	pd, err := PreparePhase(src, model, ph, cfg)
	if err != nil {
		return PhaseResult{}, err
	}
	return pd.RunSelector(sel)
}

// buildGroups converts a SelectorResult into training/scoring groups.
func buildGroups(selRes SelectorResult) ([]group, error) {
	mk := func(names []string, below, atLeast float64) (group, error) {
		feats := make([]smart.Feature, len(names))
		for i, n := range names {
			ft, err := smart.ParseFeature(n)
			if err != nil {
				return group{}, fmt.Errorf("pipeline: selected feature %q: %w", n, err)
			}
			feats[i] = ft
		}
		return group{feats: feats, names: names, mwiBelow: below, mwiAtLeast: atLeast}, nil
	}
	if selRes.Split == nil {
		g, err := mk(selRes.All, 0, 0)
		if err != nil {
			return nil, err
		}
		return []group{g}, nil
	}
	low, err := mk(selRes.Split.Low, selRes.Split.ThresholdMWI, 0)
	if err != nil {
		return nil, err
	}
	high, err := mk(selRes.Split.High, 0, selRes.Split.ThresholdMWI)
	if err != nil {
		return nil, err
	}
	return []group{low, high}, nil
}

// Run executes the staged workflow over several phases on one shared
// store (so a phase advance reuses already-ingested days) and merges
// the drive-level confusions (summing counts, as the paper aggregates
// its three testing phases).
//
// With a robust config, a phase whose selection fails retries with the
// previous phase's feature selection before the phase is skipped
// entirely, and every degradation is recorded in the run report; the
// run errs only when no phase completes. Without one, the first phase
// error aborts the run (the legacy behavior).
func Run(src dataset.Source, model smart.ModelID, sel Selector, phases []Phase, cfg Config) ([]PhaseResult, metrics.Confusion, error) {
	e := New(src, cfg)
	var results []PhaseResult
	var total metrics.Confusion
	rep := cfg.report()
	var prevSel *SelectorResult
	var firstErr error
	for _, ph := range phases {
		res, err := e.runPhaseWithFallback(model, sel, ph, prevSel)
		if err != nil {
			if cfg.Robust == nil {
				return nil, metrics.Confusion{}, fmt.Errorf("pipeline: model %v phase test [%d, %d]: %w", model, ph.TestLo, ph.TestHi, err)
			}
			if firstErr == nil {
				firstErr = err
			}
			rep.NoteFallback(fmt.Sprintf("model %v test [%d, %d]: phase skipped: %v", model, ph.TestLo, ph.TestHi, err))
			rep.NotePhase(false)
			continue
		}
		results = append(results, res)
		total.Merge(res.Confusion)
		selCopy := res.Selection
		prevSel = &selCopy
	}
	if len(results) == 0 {
		if firstErr == nil {
			firstErr = errors.New("no phases")
		}
		return nil, metrics.Confusion{}, fmt.Errorf("pipeline: model %v: every phase failed: %w", model, firstErr)
	}
	return results, total, nil
}

// runPhaseWithFallback runs one phase; in robust mode a selection
// failure retries with the previous phase's selection (recorded as a
// fallback) before giving up on the phase.
func (e *Engine) runPhaseWithFallback(model smart.ModelID, sel Selector, ph Phase, prevSel *SelectorResult) (PhaseResult, error) {
	pd, err := e.PreparePhase(model, ph)
	if err != nil {
		return PhaseResult{}, err
	}
	res, err := pd.RunSelector(sel)
	if err != nil && e.cfg.Robust != nil && prevSel != nil {
		e.cfg.report().NoteFallback(fmt.Sprintf(
			"model %v test [%d, %d]: selection failed (%v); reusing previous phase's selection", model, ph.TestLo, ph.TestHi, err))
		return pd.RunSelection(sel.Name(), *prevSel)
	}
	return res, err
}

// EvaluateOutcomes computes the drive-level confusion matrix of a set
// of outcomes.
func EvaluateOutcomes(outcomes []DriveOutcome) metrics.Confusion {
	preds := make([]metrics.DrivePrediction, len(outcomes))
	for i, o := range outcomes {
		preds[i] = o.Pred
	}
	return metrics.EvaluateDrives(preds, dataset.PredictionWindow)
}

// AUC computes the threshold-free ranking quality of a phase: the
// area under the ROC curve of per-drive maximum probabilities against
// actual failure. It errs when the phase has a single class.
func AUC(outcomes []DriveOutcome) (float64, error) {
	scores := make([]float64, len(outcomes))
	labels := make([]int, len(outcomes))
	for i, o := range outcomes {
		scores[i] = o.MaxProb
		if o.Pred.FailDay >= 0 {
			labels[i] = 1
		}
	}
	return metrics.AUC(scores, labels)
}

// EvaluateLowMWI computes the confusion restricted to drives whose
// wear level is below the threshold — the "Low" columns of Table VII.
func EvaluateLowMWI(outcomes []DriveOutcome, threshold float64) metrics.Confusion {
	var preds []metrics.DrivePrediction
	for _, o := range outcomes {
		if o.MWI < threshold {
			preds = append(preds, o.Pred)
		}
	}
	return metrics.EvaluateDrives(preds, dataset.PredictionWindow)
}
