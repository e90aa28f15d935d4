// Command controller runs the continuous-operation control loop over
// a simulated fleet: it trains an initial serving snapshot, ingests
// each control day into the fleet store, watches the serving model's
// score stream for drift (Bayesian change-point + PSI divergence), and
// on a firing re-runs feature selection, trains a candidate snapshot,
// canaries it against the serving one on a held-out recent window, and
// promotes or rolls back through the registry's never-overwrite
// versioning.
//
// Usage:
//
//	controller -model MC2 -dir runs/mc2 -start 230 -end 360
//	controller -model MC2 -dir runs/mc2 -start 230 -end 360 -resume
//
// Every control decision is journaled before it takes effect, so a
// controller killed at any point resumes (-resume) to byte-identical
// decisions, artifacts, and report.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/control"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/forest"
	"repro/internal/gbdt"
	"repro/internal/pipeline"
	"repro/internal/simulate"
	"repro/internal/smart"
)

// options are the CLI parameters of one controller run.
type options struct {
	Model    string
	Selector string
	Drives   int
	Days     int
	Only     bool
	Seed     int64
	AFRScale float64
	Trees    int
	Depth    int
	UseGBDT  bool
	Workers  int

	Dir    string
	Start  int
	End    int
	Canary int
	Window int
	PSI    float64
	Z      float64
	Resume bool
}

func main() {
	var o options
	flag.StringVar(&o.Model, "model", "MC2", "drive model under control")
	flag.StringVar(&o.Selector, "selector", "wefr", "refresh selector: wefr | wefr-noupdate | none")
	flag.IntVar(&o.Drives, "drives", 4000, "synthetic fleet size")
	flag.IntVar(&o.Days, "days", 0, "simulated span in days (0 = simulator default)")
	flag.BoolVar(&o.Only, "only", false, "restrict the simulated fleet to the controlled model")
	flag.Int64Var(&o.Seed, "seed", 1, "seed")
	flag.Float64Var(&o.AFRScale, "afr-scale", 3, "failure densifier")
	flag.IntVar(&o.Trees, "trees", 100, "prediction forest size")
	flag.IntVar(&o.Depth, "depth", 13, "prediction forest depth")
	flag.BoolVar(&o.UseGBDT, "gbdt", false, "use the gradient-boosted predictor instead of Random Forest")
	flag.IntVar(&o.Workers, "workers", 0, "parallelism (0 = all cores); results are identical for any value")
	flag.StringVar(&o.Dir, "dir", "", "controller state directory: journal + snapshot registry (required)")
	flag.IntVar(&o.Start, "start", 230, "first controlled day; bootstrap trains on days [0, start-1]")
	flag.IntVar(&o.End, "end", 0, "last controlled day (0 = last simulated day)")
	flag.IntVar(&o.Canary, "canary", control.DefaultCanaryDays, "held-out canary window in days")
	flag.IntVar(&o.Window, "window", control.DefaultMinWindow, "minimum summary window before drift is evaluated")
	flag.Float64Var(&o.PSI, "psi", control.DefaultPSIThreshold, "PSI divergence threshold")
	flag.Float64Var(&o.Z, "z", 0, "change-point z threshold (0 = default)")
	flag.BoolVar(&o.Resume, "resume", false, "resume an interrupted controller journal")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "controller: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	model, err := smart.ParseModel(o.Model)
	if err != nil {
		return err
	}
	if o.Dir == "" {
		return fmt.Errorf("-dir is required")
	}
	sel, err := selectorByName(o.Selector)
	if err != nil {
		return err
	}
	scfg := simulate.Config{TotalDrives: o.Drives, Days: o.Days, Seed: o.Seed, AFRScale: o.AFRScale}
	if o.Only {
		scfg.Models = []smart.ModelID{model}
	}
	fleet, err := simulate.New(scfg)
	if err != nil {
		return err
	}
	src := dataset.FleetSource{Fleet: fleet}
	end := o.End
	if end == 0 {
		end = src.Days() - 1
	}
	ecfg := engine.Config{
		Forest:  forest.Config{NumTrees: o.Trees, MaxDepth: o.Depth, Seed: o.Seed},
		Workers: o.Workers,
		Seed:    o.Seed,
	}
	if o.UseGBDT {
		ecfg.Predictor = engine.PredictorGBDT
		ecfg.GBDT = gbdt.Config{NumRounds: o.Trees, MaxDepth: min(o.Depth, 6), Eta: 0.3, Lambda: 1}
	}
	res, err := control.Run(src, control.Config{
		Model:        model,
		Selector:     sel,
		Engine:       ecfg,
		Start:        o.Start,
		End:          end,
		CanaryDays:   o.Canary,
		MinWindow:    o.Window,
		PSIThreshold: o.PSI,
		ZThreshold:   o.Z,
		Dir:          o.Dir,
		Resume:       o.Resume,
		// Progress goes to stderr so stdout stays byte-identical
		// across crash/resume runs.
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "controller: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Print(res.String())
	return nil
}

func selectorByName(name string) (engine.Selector, error) {
	switch name {
	case "wefr":
		return pipeline.WEFR{}, nil
	case "wefr-noupdate":
		return pipeline.WEFR{NoUpdate: true}, nil
	case "none":
		return pipeline.NoSelection{}, nil
	default:
		return nil, fmt.Errorf("unknown selector %q (want wefr, wefr-noupdate, or none)", name)
	}
}
