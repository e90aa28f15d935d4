// Command predict runs the full offline failure-prediction pipeline
// for one drive model over the paper's three testing phases: feature
// selection (WEFR by default), statistical feature generation, Random
// Forest training, validation-calibrated alarm thresholds, and
// drive-level first-alarm evaluation.
//
// Usage:
//
//	predict -model MC1 -selector wefr
//	predict -model MB1 -selector spearman -percent 0.3
//	predict -model MA1 -selector none
//
// A trained run can be captured as a versioned model snapshot and
// later re-scored without retraining:
//
//	predict -model MC1 -snapshot save -snapshot-dir artifacts
//	predict -model MC1 -snapshot load -snapshot-dir artifacts
//
// With -journal, each completed phase is checkpointed (fsync'd run
// journal + versioned model artifacts); after a crash, -resume reloads
// the completed phases instead of retraining them, with output
// identical to an uninterrupted run:
//
//	predict -model MC1 -journal runs/mc1
//	predict -model MC1 -journal runs/mc1 -resume
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/forest"
	"repro/internal/gbdt"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/selection"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/textplot"
)

// options are the CLI parameters of one predict run.
type options struct {
	Model    string
	Selector string
	Percent  float64
	Drives   int
	Seed     int64
	AFRScale float64
	Trees    int
	Depth    int
	UseGBDT  bool
	Workers  int
	// Snapshot selects the artifact mode: "" (train and evaluate),
	// "save" (train, evaluate, save the last phase's trained model),
	// or "load" (load a saved model and score the held-out window
	// without retraining).
	Snapshot string
	// SnapshotDir is the registry root directory.
	SnapshotDir string
	// SnapshotName overrides the artifact name; empty means
	// "<model>-<selector>".
	SnapshotName string
	// SnapshotVersion picks the version to load; <= 0 means latest.
	SnapshotVersion int
	// Journal, when set, checkpoints each completed phase into this
	// directory (run journal + per-phase model artifacts) so an
	// interrupted run can be resumed.
	Journal string
	// Resume continues an existing journal: completed phases reload
	// from their artifacts instead of retraining. Output is identical
	// to an uninterrupted run.
	Resume bool
}

func main() {
	var o options
	flag.StringVar(&o.Model, "model", "MC1", "drive model")
	flag.StringVar(&o.Selector, "selector", "wefr", "wefr | wefr-noupdate | none | pearson | spearman | jindex | rf | xgb")
	flag.Float64Var(&o.Percent, "percent", 0.3, "kept fraction for single-approach selectors")
	flag.IntVar(&o.Drives, "drives", 4000, "synthetic fleet size")
	flag.Int64Var(&o.Seed, "seed", 1, "seed")
	flag.Float64Var(&o.AFRScale, "afr-scale", 3, "failure densifier")
	flag.IntVar(&o.Trees, "trees", 100, "prediction forest size")
	flag.IntVar(&o.Depth, "depth", 13, "prediction forest depth")
	flag.BoolVar(&o.UseGBDT, "gbdt", false, "use the gradient-boosted predictor instead of Random Forest")
	flag.IntVar(&o.Workers, "workers", 0, "parallelism (0 = all cores); results are identical for any value")
	flag.StringVar(&o.Snapshot, "snapshot", "", "model-snapshot mode: save | load (empty = train and evaluate only)")
	flag.StringVar(&o.SnapshotDir, "snapshot-dir", "artifacts", "model-snapshot registry directory")
	flag.StringVar(&o.SnapshotName, "snapshot-name", "", "artifact name (default <model>-<selector>)")
	flag.IntVar(&o.SnapshotVersion, "snapshot-version", 0, "version to load (0 = latest)")
	flag.StringVar(&o.Journal, "journal", "", "journal directory for crash-safe runs (empty = no journaling)")
	flag.BoolVar(&o.Resume, "resume", false, "resume an interrupted journaled run (requires -journal)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "predict: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	model, err := smart.ParseModel(o.Model)
	if err != nil {
		return err
	}
	if o.Resume && o.Journal == "" {
		return fmt.Errorf("-resume requires -journal")
	}
	switch o.Snapshot {
	case "", "save":
		return runTrain(o, model)
	case "load":
		return runLoad(o, model)
	default:
		return fmt.Errorf("unknown -snapshot mode %q (want save or load)", o.Snapshot)
	}
}

// snapshotName resolves the registry artifact name.
func (o options) snapshotName() string {
	if o.SnapshotName != "" {
		return o.SnapshotName
	}
	return fmt.Sprintf("%s-%s", o.Model, strings.ToLower(o.Selector))
}

// newSource builds the synthetic fleet source. The engine's fleet
// store takes care of caching, so the raw source is returned directly.
func newSource(o options) (dataset.Source, error) {
	fleet, err := simulate.New(simulate.Config{TotalDrives: o.Drives, Seed: o.Seed, AFRScale: o.AFRScale})
	if err != nil {
		return nil, err
	}
	return dataset.FleetSource{Fleet: fleet}, nil
}

func pipelineConfig(o options) engine.Config {
	cfg := engine.Config{
		Forest:  forest.Config{NumTrees: o.Trees, MaxDepth: o.Depth, Seed: o.Seed},
		Workers: o.Workers,
		Seed:    o.Seed,
	}
	if o.UseGBDT {
		cfg.Predictor = engine.PredictorGBDT
		cfg.GBDT = gbdt.Config{NumRounds: o.Trees, MaxDepth: min(o.Depth, 6), Eta: 0.3, Lambda: 1}
	}
	return cfg
}

// runTrain trains and evaluates the three standard phases, optionally
// saving the last phase's trained model as a versioned snapshot.
func runTrain(o options, model smart.ModelID) error {
	sel, err := selectorByName(o.Selector, o.Percent, o.Seed)
	if err != nil {
		return err
	}
	src, err := newSource(o)
	if err != nil {
		return err
	}
	cfg := pipelineConfig(o)
	phases := engine.StandardPhases(src.Days())
	fmt.Printf("model %v, selector %s, %d drives, %d phases\n\n", model, sel.Name(), o.Drives, len(phases))

	var results []engine.PhaseResult
	var total metrics.Confusion
	if o.Journal != "" {
		// Resume notices go to stderr so stdout stays byte-identical to
		// an uninterrupted (or unjournaled) run.
		jo := engine.JournalOpts{Dir: o.Journal, Resume: o.Resume, Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "predict: "+format+"\n", args...)
		}}
		results, total, err = engine.RunJournaled(src, model, sel, phases, cfg, jo)
	} else {
		results, total, err = engine.Run(src, model, sel, phases, cfg)
	}
	if err != nil {
		return err
	}

	var rows [][]string
	for i, r := range results {
		auc := "n/a"
		if v, err := engine.AUC(r.Outcomes); err == nil {
			auc = fmt.Sprintf("%.3f", v)
		}
		rows = append(rows, []string{
			fmt.Sprintf("phase %d", i+1),
			fmt.Sprintf("%d", len(r.Selection.All)),
			fmt.Sprintf("%.2f", r.Thresholds[0]),
			fmt.Sprintf("%d", r.Confusion.TP),
			fmt.Sprintf("%d", r.Confusion.FP),
			fmt.Sprintf("%d", r.Confusion.FN),
			textplot.Percent(r.Confusion.Precision()),
			textplot.Percent(r.Confusion.Recall()),
			textplot.Percent(r.Confusion.F05()),
			auc,
		})
	}
	fmt.Print(textplot.Table(
		[]string{"Phase", "Feats", "Thresh", "TP", "FP", "FN", "P", "R", "F0.5", "AUC"}, rows))
	fmt.Printf("\nOverall: %s\n", total)

	last := results[len(results)-1]
	fmt.Printf("\nSelected features (last phase): %v\n", last.Selection.All)
	if last.Selection.Split != nil {
		fmt.Printf("Wear split at MWI_N %.0f\n  low:  %v\n  high: %v\n",
			last.Selection.Split.ThresholdMWI, last.Selection.Split.Low, last.Selection.Split.High)
	}

	if o.Snapshot == "save" {
		snap, err := last.Snapshot()
		if err != nil {
			return err
		}
		reg := &core.Registry{Dir: o.SnapshotDir}
		version, err := engine.SaveSnapshot(reg, o.snapshotName(), snap)
		if err != nil {
			return err
		}
		fmt.Printf("\nSaved model snapshot %s v%d (trained through day %d, config %s) to %s\n",
			o.snapshotName(), version, snap.TrainedThrough, snap.ConfigHash, o.SnapshotDir)
	}
	return nil
}

// runLoad scores the held-out window with a saved model snapshot — no
// selection, training, or calibration happens.
func runLoad(o options, model smart.ModelID) error {
	reg := &core.Registry{Dir: o.SnapshotDir}
	snap, err := engine.LoadSnapshot(reg, o.snapshotName(), o.SnapshotVersion)
	if err != nil {
		return err
	}
	if snap.Model != model {
		return fmt.Errorf("snapshot %s is for model %v, not %v", o.snapshotName(), snap.Model, model)
	}
	src, err := newSource(o)
	if err != nil {
		return err
	}
	phases := engine.StandardPhases(src.Days())
	last := phases[len(phases)-1]
	fmt.Printf("model %v, snapshot %s (selector %s, trained through day %d, config %s)\n",
		model, o.snapshotName(), snap.Selector, snap.TrainedThrough, snap.ConfigHash)
	fmt.Printf("scoring days [%d, %d] without retraining\n\n", last.TestLo, last.TestHi)

	outcomes, err := engine.ScoreSnapshot(src, snap, last.TestLo, last.TestHi, engine.ScoreOpts{Workers: o.Workers})
	if err != nil {
		return err
	}
	confusion := engine.EvaluateOutcomes(outcomes)
	auc := "n/a"
	if v, err := engine.AUC(outcomes); err == nil {
		auc = fmt.Sprintf("%.3f", v)
	}
	fmt.Print(textplot.Table(
		[]string{"Window", "Feats", "Thresh", "TP", "FP", "FN", "P", "R", "F0.5", "AUC"},
		[][]string{{
			fmt.Sprintf("[%d, %d]", last.TestLo, last.TestHi),
			fmt.Sprintf("%d", len(snap.Selection.All)),
			fmt.Sprintf("%.2f", snap.Thresholds[0]),
			fmt.Sprintf("%d", confusion.TP),
			fmt.Sprintf("%d", confusion.FP),
			fmt.Sprintf("%d", confusion.FN),
			textplot.Percent(confusion.Precision()),
			textplot.Percent(confusion.Recall()),
			textplot.Percent(confusion.F05()),
			auc,
		}}))
	fmt.Printf("\nOverall: %s\n", confusion)
	return nil
}

func selectorByName(name string, percent float64, seed int64) (engine.Selector, error) {
	switch strings.ToLower(name) {
	case "wefr":
		return pipeline.WEFR{}, nil
	case "wefr-noupdate":
		return pipeline.WEFR{NoUpdate: true}, nil
	case "none":
		return pipeline.NoSelection{}, nil
	case "pearson":
		return pipeline.SingleRanker{Ranker: selection.Pearson{}, Percent: percent}, nil
	case "spearman":
		return pipeline.SingleRanker{Ranker: selection.Spearman{}, Percent: percent}, nil
	case "jindex":
		return pipeline.SingleRanker{Ranker: selection.JIndex{}, Percent: percent}, nil
	case "rf":
		return pipeline.SingleRanker{Ranker: selection.RandomForest{Seed: seed}, Percent: percent}, nil
	case "xgb":
		return pipeline.SingleRanker{Ranker: selection.XGBoost{}, Percent: percent}, nil
	default:
		return nil, fmt.Errorf("unknown selector %q", name)
	}
}
