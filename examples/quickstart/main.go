// Quickstart: simulate a small SSD fleet, run WEFR feature selection
// for one drive model, train the failure-prediction pipeline, and
// print drive-level accuracy — the whole library in ~60 lines.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/forest"
	"repro/internal/pipeline"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/survival"
)

func main() {
	// 1. A fleet of 1200 SSDs across the six drive models, 24 months
	// of daily SMART logs, with failures densified 4x so a small fleet
	// still has signal.
	fleet, err := simulate.New(simulate.Config{TotalDrives: 1200, Seed: 42, AFRScale: 4})
	if err != nil {
		log.Fatal(err)
	}
	src := dataset.NewCachedSource(dataset.FleetSource{Fleet: fleet})

	// 2. Build a learning frame for MC1 (raw + normalized value of
	// every SMART attribute the model reports) and the survival curve
	// WEFR uses for its wear-out split.
	fr, err := dataset.Frame(src, dataset.FrameOpts{Model: smart.MC1, DayHi: src.Days() - 1, NegEvery: 30})
	if err != nil {
		log.Fatal(err)
	}
	curve, err := survival.Compute(src, smart.MC1, 0)
	if err != nil {
		log.Fatal(err)
	}

	// 3. WEFR: five ranking approaches, Kendall-tau outlier removal,
	// mean-rank aggregation, automatic feature count, wear-out split.
	res, err := core.Select(fr, curve, core.Config{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WEFR selected %d of %d features: %v\n",
		res.Global.Count, fr.NumFeatures(), res.Global.Features)
	if res.Split != nil {
		fmt.Printf("wear split at MWI_N %.0f\n  low:  %v\n  high: %v\n",
			res.Split.ThresholdMWI, res.Split.Low.Features, res.Split.High.Features)
	}

	// 4. End-to-end prediction on the paper's final testing phase.
	phases := engine.StandardPhases(src.Days())
	result, err := engine.RunPhase(src, smart.MC1, pipeline.WEFR{}, phases[len(phases)-1], engine.Config{
		Forest:   forest.Config{NumTrees: 25, MaxDepth: 8, Seed: 42},
		NegEvery: 30,
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntest phase: %s\n", result.Confusion)
}
