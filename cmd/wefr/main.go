// Command wefr runs Wear-out-updating Ensemble Feature Ranking over a
// dataset and prints the selected learning features: the per-approach
// rankings, the outlier-removal decision, the automatically determined
// feature count, and — when the survival curve has a significant change
// point — the per-wear-group selections.
//
// The dataset is either a synthetic fleet (default) or CSV files
// written by ssdgen / adapted from the released Alibaba dataset:
//
//	wefr -model MC1 -drives 4000 -seed 1
//	wefr -model MC1 -smart data/smart_MC1.csv -tickets data/tickets.csv
//
// With -faults the dataset is corrupted deterministically before
// selection and the ensemble runs in robust mode (failed rankers are
// dropped like outliers):
//
//	wefr -model MC1 -faults "gaps=0.02,nan=0.01"
//
// -rankers swaps the ensemble's preliminary approaches for any set of
// registered rankers (see internal/selection's registry); empty keeps
// the paper's five. Unknown names exit nonzero listing the registered
// ones:
//
//	wefr -model MC1 -rankers pearson,mutual-info,svm-margin
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/selection"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/store"
	"repro/internal/survival"
	"repro/internal/textplot"
)

func main() {
	var (
		model     = flag.String("model", "MC1", "drive model to select features for")
		drives    = flag.Int("drives", 4000, "synthetic fleet size (ignored with -smart)")
		seed      = flag.Int64("seed", 1, "seed for the synthetic fleet and rankers")
		afrScale  = flag.Float64("afr-scale", 3, "synthetic failure densifier (ignored with -smart)")
		smartCSV  = flag.String("smart", "", "SMART log CSV (ssdgen layout); empty = simulate")
		tickets   = flag.String("tickets", "", "failure tickets CSV (required with -smart)")
		negEvery  = flag.Int("neg-every", 15, "negative drive-day sampling stride")
		noUpdate  = flag.Bool("no-update", false, "skip the wear-out-updating step")
		faultSpec = flag.String("faults", "", `fault-injection spec, e.g. "gaps=0.02,nan=0.01" (enables robust mode)`)
		rankers   = flag.String("rankers", "", "comma-separated registry specs of the preliminary approaches (empty = the paper's five)")
	)
	flag.Parse()

	if err := run(*model, *drives, *seed, *afrScale, *smartCSV, *tickets, *negEvery, *noUpdate, *faultSpec, *rankers); err != nil {
		fmt.Fprintf(os.Stderr, "wefr: %v\n", err)
		os.Exit(1)
	}
}

func run(modelName string, drives int, seed int64, afrScale float64, smartCSV, ticketCSV string, negEvery int, noUpdate bool, faultSpec, rankerList string) error {
	model, err := smart.ParseModel(modelName)
	if err != nil {
		return err
	}
	rankerSpecs, err := parseRankers(rankerList)
	if err != nil {
		return err
	}
	var faultCfg faults.Config
	if faultSpec != "" {
		faultCfg, err = faults.ParseSpec(faultSpec)
		if err != nil {
			return err
		}
	}

	var src dataset.Source
	if smartCSV != "" {
		logs, err := loadCSV(smartCSV, ticketCSV)
		if err != nil {
			return err
		}
		if logs.Model() != model {
			return fmt.Errorf("CSV contains model %v, requested %v", logs.Model(), model)
		}
		src = logs
	} else {
		fleet, err := simulate.New(simulate.Config{TotalDrives: drives, Seed: seed, AFRScale: afrScale})
		if err != nil {
			return err
		}
		src = dataset.FleetSource{Fleet: fleet}
	}

	var injector *faults.Injector
	coreCfg := core.Config{Seed: seed, RankerSpecs: rankerSpecs}
	frameOpts := dataset.FrameOpts{Model: model, NegEvery: negEvery}
	var counter dataset.DefectCounter
	if faultCfg.Enabled() {
		injector = faults.New(src, faultCfg)
		src = injector
		coreCfg.Robust = &core.RobustConfig{}
		frameOpts.Sanitize = &dataset.SanitizeOpts{Counter: &counter}
	}

	// All reads go through an append-only fleet store: one upstream
	// fetch per drive, shared by the selection frame and the survival
	// curve.
	st := store.Open(src, store.Options{})
	if err := st.AppendThrough(src.Days() - 1); err != nil {
		return err
	}
	src = st.Snapshot()

	fr, err := dataset.Frame(src, frameOpts)
	if err != nil {
		return err
	}
	fmt.Printf("model %v: %d samples (%d positive), %d learning features\n\n",
		model, fr.NumRows(), fr.Positives(), fr.NumFeatures())

	curve := survival.Curve{}
	if !noUpdate {
		curve, err = survival.Compute(src, model, 0)
		if err != nil {
			return err
		}
	}
	res, err := core.Select(fr, curve, coreCfg)
	if err != nil {
		return err
	}

	if injector != nil {
		printFaults(injector.Stats(), counter.Snapshot(), res.Notes)
	}
	printSelection("Global selection (all SSDs)", res.Global)
	if res.Split == nil {
		fmt.Println("No significant survival change point: single feature set.")
		return nil
	}
	fmt.Printf("Survival change point at MWI_N = %.0f (z = %.1f)\n\n", res.Split.ThresholdMWI, res.Split.Z)
	printSelection(fmt.Sprintf("Low wear group (MWI_N < %.0f)", res.Split.ThresholdMWI), res.Split.Low)
	printSelection(fmt.Sprintf("High wear group (MWI_N >= %.0f)", res.Split.ThresholdMWI), res.Split.High)
	return nil
}

// parseRankers parses the -rankers list and resolves every spec
// against the selection registry, so an unknown ranker fails the run
// before any dataset work with the registered names in the error. An
// empty list returns nil — the paper's five.
func parseRankers(list string) ([]string, error) {
	if list == "" {
		return nil, nil
	}
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

func loadCSV(smartCSV, ticketCSV string) (*dataset.Logs, error) {
	f, err := os.Open(smartCSV)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	logs, err := dataset.ReadModelCSV(f)
	if err != nil {
		return nil, err
	}
	if ticketCSV != "" {
		tf, err := os.Open(ticketCSV)
		if err != nil {
			return nil, err
		}
		defer tf.Close()
		tickets, err := dataset.ReadTicketsCSV(tf)
		if err != nil {
			return nil, err
		}
		logs.ApplyTickets(tickets)
	}
	return logs, nil
}

// printFaults summarizes injected defects, what the sanitizer did
// about them, and degradation decisions taken during selection.
func printFaults(st faults.Stats, det dataset.DefectStats, notes []string) {
	fmt.Println("Fault injection")
	var rows [][]string
	for _, c := range [...]struct {
		name  string
		count int
	}{
		{"gap_days", st.GapDays},
		{"dropout_columns", st.DropoutColumns},
		{"stuck_runs", st.StuckRuns},
		{"dup_days", st.DupDays},
		{"swap_pairs", st.SwapPairs},
		{"nan_cells", st.NaNCells},
		{"sentinel_cells", st.SentinelCells},
		{"tickets_delayed", st.TicketsDelayed},
		{"tickets_dropped", st.TicketsDropped},
	} {
		if c.count > 0 {
			rows = append(rows, []string{c.name, fmt.Sprintf("%d", c.count)})
		}
	}
	fmt.Print(textplot.Table([]string{"Injected defect", "Count"}, rows))
	fmt.Printf("Sanitizer: %d sentinel cells scrubbed, %d cells imputed, %d residual missing\n",
		det.SentinelCells, det.ImputedCells, det.ResidualCells)
	for _, n := range notes {
		fmt.Printf("Degradation: %s\n", n)
	}
	fmt.Println()
}

func printSelection(title string, sel core.Selection) {
	fmt.Println(title)
	var rows [][]string
	for _, rep := range sel.Rankers {
		status := "kept"
		if rep.Outlier {
			status = "discarded (outlier)"
		}
		rows = append(rows, []string{rep.Name, fmt.Sprintf("%.1f", rep.MeanDistance), status})
	}
	fmt.Print(textplot.Table([]string{"Approach", "Mean Kendall distance", "Status"}, rows))
	fmt.Printf("Selected %d features: %v\n\n", sel.Count, sel.Features)
}
