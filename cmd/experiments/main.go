// Command experiments regenerates the tables and figures of the WEFR
// paper's evaluation on a simulated fleet.
//
// Usage:
//
//	experiments -exp all            # everything (slow at full scale)
//	experiments -exp table6         # just Exp#1
//	experiments -exp fig1,table5    # a subset
//	experiments -drives 8000        # scale the fleet up
//	experiments -fast               # reduced settings for a quick pass
//
// Experiment IDs: table1 table2 table3 table4 table5 table6 table7
// table8 fig1 fig2 (aliases exp1=table6, exp2=fig2, exp3=table7,
// exp4=table8).
//
// Fault injection (robustness evaluation):
//
//	experiments -exp table6 -faults "gaps=0.02,dropout=MA1:wear,nan=0.01,tickets-delay=3d"
//	experiments -exp table6 -faults "seed=7,stuck=0.01" -report report.json
//
// With -faults the pipelines run in robust mode; -report writes a JSON
// accounting of injected defects, detected defects, and degradations
// ("-" for stdout). -robust enables robust mode without injection.
//
// Ranker registry (see internal/selection):
//
//	experiments -exp table6 -rankers pearson,mutual-info,svm-margin
//	experiments -rank-eval                      # evaluate every registered ranker
//	experiments -rank-eval -rank-eval-json -    # plus the JSON report on stdout
//
// -rankers names the preliminary approaches by their registry specs
// (unknown names exit nonzero listing the registered ones); -rank-eval
// runs the internal/rankeval harness — stability under bootstrap
// resampling, cross-seed rank similarity, and AUC-vs-k curves for every
// registered ranker plus the WEFR ensemble. When -rank-eval is given
// without an explicit -exp, the regular experiments are skipped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/rankeval"
	"repro/internal/selection"
	"repro/internal/smart"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiment ids (see doc comment)")
		drives    = flag.Int("drives", 0, "fleet size override (0 = config default)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		fast      = flag.Bool("fast", false, "use the reduced test-scale configuration")
		rounds    = flag.Int("rounds", 5, "averaging rounds for table8 (paper: 20)")
		trees     = flag.Int("trees", 0, "prediction forest size override (paper: 100)")
		depth     = flag.Int("depth", 0, "prediction forest depth override (paper: 13)")
		phases    = flag.Int("phases", 0, "testing phase count (0 = all three)")
		workers   = flag.Int("workers", 0, "parallel workers for extraction/fitting/scoring (0 = GOMAXPROCS, 1 = serial; results identical)")
		models    = flag.String("models", "", "comma-separated drive models to restrict to (empty = all six)")
		faultSpec = flag.String("faults", "", `fault-injection spec, e.g. "gaps=0.02,dropout=MA1:wear,nan=0.01,tickets-delay=3d" (implies -robust)`)
		robust    = flag.Bool("robust", false, "run pipelines in robust (sanitizing, degrading) mode")
		report    = flag.String("report", "", `write the robustness run report as JSON to this path ("-" = stdout)`)
		stageRep  = flag.Bool("stage-report", false, "print per-stage timing and row counts after the experiments")
		rankers   = flag.String("rankers", "", "comma-separated registry specs of the preliminary approaches (empty = the paper's five)")
		rankEval  = flag.Bool("rank-eval", false, "run the ranker-evaluation harness (every registered ranker + WEFR, or the -rankers subset)")
		rankJSON  = flag.String("rank-eval-json", "", `write the ranker-evaluation report as JSON to this path ("-" = stdout; requires -rank-eval)`)
	)
	flag.Parse()
	expSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "exp" {
			expSet = true
		}
	})

	cfg := experiments.DefaultConfig()
	if *fast {
		cfg = experiments.TestConfig()
	}
	cfg.Seed = *seed
	if *drives > 0 {
		cfg.TotalDrives = *drives
	}
	if *trees > 0 {
		cfg.Forest.NumTrees = *trees
	}
	if *depth > 0 {
		cfg.Forest.MaxDepth = *depth
	}
	cfg.PhaseCount = *phases
	cfg.Workers = *workers

	if err := applyFlags(&cfg, flagValues{
		drives: *drives, rounds: *rounds, trees: *trees, depth: *depth,
		phases: *phases, workers: *workers,
		models: *models, faults: *faultSpec, report: *report, robust: *robust,
		rankers: *rankers, rankEval: *rankEval, rankEvalJSON: *rankJSON,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	expList := *exp
	if *rankEval && !expSet {
		// -rank-eval without an explicit -exp runs only the harness.
		expList = "none"
	}
	if err := run(cfg, expList, *rounds, *report, *stageRep, rankEvalFlags{
		enabled: *rankEval, jsonPath: *rankJSON, fast: *fast,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// flagValues carries the raw flag values into validation so it can be
// exercised by tests without a flag.FlagSet.
type flagValues struct {
	drives, rounds, trees, depth, phases, workers int
	models, faults, report                        string
	robust                                        bool
	rankers, rankEvalJSON                         string
	rankEval                                      bool
}

// rankEvalFlags carries the ranker-evaluation request into run.
type rankEvalFlags struct {
	enabled  bool
	jsonPath string
	// fast shrinks the harness (fewer bootstraps/seeds, a shorter
	// AUC-vs-k grid) to CI-smoke scale.
	fast bool
}

// applyFlags validates the raw flag values and folds the fault/model
// flags into cfg. Any invalid input is an error (the caller exits
// nonzero) rather than a silently ignored or clamped value.
func applyFlags(cfg *experiments.Config, fv flagValues) error {
	switch {
	case fv.drives < 0:
		return fmt.Errorf("-drives must be >= 0, got %d", fv.drives)
	case fv.rounds < 1:
		return fmt.Errorf("-rounds must be >= 1, got %d", fv.rounds)
	case fv.trees < 0:
		return fmt.Errorf("-trees must be >= 0, got %d", fv.trees)
	case fv.depth < 0:
		return fmt.Errorf("-depth must be >= 0, got %d", fv.depth)
	case fv.phases < 0 || fv.phases > 3:
		return fmt.Errorf("-phases must be in [0, 3], got %d", fv.phases)
	case fv.workers < 0:
		return fmt.Errorf("-workers must be >= 0, got %d", fv.workers)
	}
	cfg.Robust = fv.robust
	if fv.models != "" {
		ms, err := parseModels(fv.models)
		if err != nil {
			return err
		}
		cfg.Models = ms
	}
	if fv.faults != "" {
		fc, err := faults.ParseSpec(fv.faults)
		if err != nil {
			return err
		}
		cfg.Faults = fc
	}
	if fv.report != "" && fv.faults == "" && !fv.robust {
		return fmt.Errorf("-report requires -faults or -robust (nothing to report otherwise)")
	}
	if fv.rankers != "" {
		specs, err := parseRankers(fv.rankers)
		if err != nil {
			return err
		}
		cfg.RankerSpecs = specs
	}
	if fv.rankEvalJSON != "" && !fv.rankEval {
		return fmt.Errorf("-rank-eval-json requires -rank-eval")
	}
	return nil
}

// parseRankers parses a comma-separated ranker spec list and resolves
// every name against the selection registry, so an unknown ranker
// fails fast here — before any fleet simulation — with the registered
// names in the error.
func parseRankers(list string) ([]string, error) {
	var out []string
	for _, raw := range strings.Split(list, ",") {
		spec := strings.TrimSpace(raw)
		if spec == "" {
			continue
		}
		if _, err := selection.Resolve(spec, 0, 0); err != nil {
			return nil, fmt.Errorf("-rankers: %w", err)
		}
		out = append(out, spec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-rankers: no rankers in %q", list)
	}
	return out, nil
}

// parseModels parses a comma-separated drive-model list.
func parseModels(list string) ([]smart.ModelID, error) {
	var out []smart.ModelID
	for _, raw := range strings.Split(list, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		m, err := smart.ParseModel(strings.ToUpper(name))
		if err != nil {
			return nil, fmt.Errorf("-models: %w", err)
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-models: no models in %q", list)
	}
	return out, nil
}

func run(cfg experiments.Config, expList string, rounds int, reportPath string, stageReport bool, re rankEvalFlags) error {
	ids, err := parseIDs(expList)
	if err != nil {
		return err
	}
	fmt.Printf("building fleet (%d drives, seed %d)...\n\n", cfg.TotalDrives, cfg.Seed)
	h, err := experiments.New(cfg)
	if err != nil {
		return err
	}

	runners := map[string]func() (string, error){
		"table1":   func() (string, error) { return h.Table1().Render(), nil },
		"table2":   func() (string, error) { return h.Table2().Render(), nil },
		"table3":   func() (string, error) { r, err := h.Table3(); return render(r, err) },
		"table4":   func() (string, error) { r, err := h.Table4(); return render(r, err) },
		"table5":   func() (string, error) { r, err := h.Table5(); return render(r, err) },
		"fig1":     func() (string, error) { r, err := h.Fig1(); return render(r, err) },
		"table6":   func() (string, error) { r, err := h.Exp1(); return render(r, err) },
		"fig2":     func() (string, error) { r, err := h.Exp2(); return render(r, err) },
		"table7":   func() (string, error) { r, err := h.Exp3(); return render(r, err) },
		"table8":   func() (string, error) { r, err := h.Exp4(rounds); return render(r, err) },
		"ablation": func() (string, error) { r, err := h.Ablation(); return render(r, err) },
	}
	for _, id := range ids {
		f, ok := runners[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		out, err := f()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(out)
	}
	if re.enabled {
		opts := rankeval.Options{}
		if re.fast {
			opts = rankeval.Options{Bootstraps: 4, Seeds: 2, TopK: []int{4, 8}}
		}
		res, err := h.RankEval(opts)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if re.jsonPath != "" {
			if err := writeReport(res, re.jsonPath); err != nil {
				return fmt.Errorf("rank-eval report: %w", err)
			}
		}
	}
	if reportPath != "" {
		if err := writeReport(h.ReportSnapshot(), reportPath); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	if stageReport {
		fmt.Println("Pipeline stages")
		fmt.Print(h.StageReport().String())
		c := h.Store().Counters()
		fmt.Printf("store: %d upstream fetches, %d drive-days ingested, %d appends, %d snapshots\n",
			c.SeriesFetches, c.DaysIngested, c.Appends, c.Snapshots)
	}
	return nil
}

// writeReport serializes the robustness report to path ("-" = stdout).
func writeReport(snap any, path string) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	// Stage-and-rename: a failed write never leaves a partial report.
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// CreateTemp makes 0600 files; match os.Create's permissions.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// renderable is any experiment result with a text rendering.
type renderable interface{ Render() string }

func render(r renderable, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// order is the canonical experiment sequence for -exp all.
var order = []string{
	"table1", "table2", "table3", "table4", "fig1", "table5",
	"table6", "fig2", "table7", "table8", "ablation",
}

var aliases = map[string]string{
	"exp1": "table6", "exp2": "fig2", "exp3": "table7", "exp4": "table8",
}

func parseIDs(list string) ([]string, error) {
	if list == "all" {
		return order, nil
	}
	if list == "none" {
		// Used by -rank-eval without an explicit -exp: only the
		// ranker-evaluation harness runs.
		return nil, nil
	}
	var out []string
	for _, raw := range strings.Split(list, ",") {
		id := strings.TrimSpace(strings.ToLower(raw))
		if alias, ok := aliases[id]; ok {
			id = alias
		}
		if id == "" {
			continue
		}
		out = append(out, id)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no experiments in %q", list)
	}
	return out, nil
}
