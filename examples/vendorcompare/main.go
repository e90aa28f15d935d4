// Vendorcompare: the heterogeneity study that motivates WEFR
// (Section III-B). For every drive model, the example ranks features
// with each of the five preliminary approaches and shows (a) that the
// top-5 lists disagree across approaches and across models, and
// (b) that WEFR's ensemble lands on each model's planted failure
// signature without per-model tuning.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/selection"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/textplot"
)

func main() {
	fleet, err := simulate.New(simulate.Config{TotalDrives: 1200, Seed: 11, AFRScale: 4})
	if err != nil {
		log.Fatal(err)
	}
	src := dataset.NewCachedSource(dataset.FleetSource{Fleet: fleet})

	for _, model := range smart.AllModels() {
		fr, err := dataset.Frame(src, dataset.FrameOpts{Model: model, DayHi: src.Days() - 1, NegEvery: 50})
		if err != nil {
			log.Fatal(err)
		}
		if fr.Positives() < 5 {
			fmt.Printf("%v: too few failures in this small fleet, skipping\n\n", model)
			continue
		}

		// Per-approach top-5 (the Table IV view, for every model).
		header := []string{"Rank"}
		tops := make([][]string, 5)
		for _, rk := range selection.DefaultRankers(11) {
			res, err := rk.Rank(fr)
			if err != nil {
				log.Fatal(err)
			}
			header = append(header, rk.Name())
			for i, f := range res.TopN(5) {
				tops[i] = append(tops[i], fr.Names()[f])
			}
		}
		var rows [][]string
		for i, t := range tops {
			rows = append(rows, append([]string{fmt.Sprintf("%d", i+1)}, t...))
		}
		fmt.Printf("%v (%d samples, %d positive)\n", model, fr.NumRows(), fr.Positives())
		fmt.Print(textplot.Table(header, rows))

		// WEFR's ensemble answer.
		sel, err := core.SelectFeatures(fr, core.Config{Seed: 11})
		if err != nil {
			log.Fatal(err)
		}
		var discarded []string
		for _, rep := range sel.Rankers {
			if rep.Outlier {
				discarded = append(discarded, rep.Name)
			}
		}
		fmt.Printf("WEFR: %d features %v", sel.Count, sel.Features)
		if len(discarded) > 0 {
			fmt.Printf(" (discarded rankings: %v)", discarded)
		}
		fmt.Print("\n\n")
	}
}
