// Customranker: extending WEFR with a user-defined feature-selection
// approach through the ranker registry. A deployment registers its
// criterion once (selection.Register) and then selects it by name in
// core.Config.RankerSpecs — exactly how the built-in approaches are
// wired — so the custom ranker also becomes addressable from every
// spec-driven surface (the -rankers CLI flags, the rank-eval harness).
// WEFR's Kendall-tau outlier removal automatically protects the
// ensemble from a ranker that turns out to be garbage — demonstrated
// here by adding both a sensible custom ranker (variance ratio,
// registered and selected by name) and an adversarial one
// (alphabetical order, passed as a raw Ranker instance).
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/frame"
	"repro/internal/selection"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/stats"
)

// VarianceRatioRanker scores a feature by the ratio of its variance in
// failed samples to its variance in healthy samples — a cheap custom
// criterion: error counters of failing drives have inflated spread.
type VarianceRatioRanker struct{}

var _ selection.Ranker = VarianceRatioRanker{}

// Name implements selection.Ranker.
func (VarianceRatioRanker) Name() string { return "VarianceRatio" }

// Rank implements selection.Ranker.
func (VarianceRatioRanker) Rank(fr *frame.Frame) (selection.Result, error) {
	scores := make([]float64, fr.NumFeatures())
	labels := fr.Labels()
	for i := range scores {
		col := fr.Col(i)
		var pos, neg []float64
		for j, v := range col {
			if labels[j] == 1 {
				pos = append(pos, v)
			} else {
				neg = append(neg, v)
			}
		}
		_, vp, err := stats.MeanVariance(pos)
		if err != nil {
			return selection.Result{}, err
		}
		_, vn, err := stats.MeanVariance(neg)
		if err != nil {
			return selection.Result{}, err
		}
		scores[i] = vp / (vn + 1e-9)
	}
	return selection.Result{Scores: scores, Ranks: stats.ScoresToRanks(scores)}, nil
}

// AlphabeticalRanker ranks features by name — deliberately useless, to
// show the ensemble discarding it.
type AlphabeticalRanker struct{}

var _ selection.Ranker = AlphabeticalRanker{}

// Name implements selection.Ranker.
func (AlphabeticalRanker) Name() string { return "Alphabetical" }

// Rank implements selection.Ranker.
func (AlphabeticalRanker) Rank(fr *frame.Frame) (selection.Result, error) {
	names := append([]string(nil), fr.Names()...)
	sort.Strings(names)
	pos := make(map[string]int, len(names))
	for i, n := range names {
		pos[n] = i
	}
	scores := make([]float64, fr.NumFeatures())
	for i, n := range fr.Names() {
		scores[i] = float64(len(names) - pos[n])
	}
	return selection.Result{Scores: scores, Ranks: stats.ScoresToRanks(scores)}, nil
}

func main() {
	// The third-party extension path: register the custom criterion
	// under a name, making it resolvable everywhere specs are.
	selection.Register("variance-ratio", func(selection.Params) selection.Ranker {
		return VarianceRatioRanker{}
	}, "vr")

	fleet, err := simulate.New(simulate.Config{TotalDrives: 1000, Seed: 3, AFRScale: 5})
	if err != nil {
		log.Fatal(err)
	}
	src := dataset.NewCachedSource(dataset.FleetSource{Fleet: fleet})
	fr, err := dataset.Frame(src, dataset.FrameOpts{Model: smart.MC1, DayHi: src.Days() - 1, NegEvery: 40})
	if err != nil {
		log.Fatal(err)
	}

	// Run 1: the paper's five approaches plus the registered custom
	// criterion, selected purely by name — it joins the ensemble as a
	// peer.
	report(fr, "with VarianceRatio (a sensible custom ranker)",
		core.Config{
			RankerSpecs: append(selection.DefaultSpecs(), "variance-ratio"),
			Seed:        3,
		})

	// Run 2: the five approaches plus a garbage criterion — the
	// Kendall-tau robustness step discards it. (Note: outlier removal
	// flags *one* aberrant ranking reliably; several simultaneous
	// aberrant rankings inflate the deviation baseline and can shield
	// each other, which is why the two custom rankers are demonstrated
	// separately.) This one is passed as a raw Ranker instance — the
	// pre-registry extension path still works.
	report(fr, "with Alphabetical (an adversarial ranker)",
		core.Config{
			Rankers: append(selection.DefaultRankers(3), AlphabeticalRanker{}),
			Seed:    3,
		})
}

func report(fr *frame.Frame, title string, cfg core.Config) {
	sel, err := core.SelectFeatures(fr, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ensemble %s:\n", title)
	for _, rep := range sel.Rankers {
		status := "kept"
		if rep.Outlier {
			status = "DISCARDED as outlier"
		}
		fmt.Printf("  %-14s mean Kendall distance %6.1f  %s\n", rep.Name, rep.MeanDistance, status)
	}
	fmt.Printf("selected %d features: %v\n\n", sel.Count, sel.Features)
}
