package repro

// Cross-module integration tests: each exercises a full slice of the
// system rather than one package — simulator through CSV through WEFR,
// the planted failure signatures through the ensemble, and the updater
// over replayed fleet history.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/frame"
	"repro/internal/selection"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/survival"
)

// TestCSVPipelineParity simulates a fleet, round-trips one model
// through the released-dataset CSV layout, and verifies WEFR selects
// the identical feature set from both sources.
func TestCSVPipelineParity(t *testing.T) {
	fleet, err := simulate.New(simulate.Config{TotalDrives: 700, Days: 240, Seed: 5, AFRScale: 6})
	if err != nil {
		t.Fatal(err)
	}
	direct := dataset.FleetSource{Fleet: fleet}

	var logBuf, ticketBuf bytes.Buffer
	if err := dataset.WriteModelCSV(&logBuf, direct, smart.MC1); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteTicketsCSV(&ticketBuf, direct, []smart.ModelID{smart.MC1}); err != nil {
		t.Fatal(err)
	}
	logs, err := dataset.ReadModelCSV(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tickets, err := dataset.ReadTicketsCSV(bytes.NewReader(ticketBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	logs.ApplyTickets(tickets)

	opts := dataset.FrameOpts{Model: smart.MC1, DayHi: direct.Days() - 1, NegEvery: 15}
	frA, err := dataset.Frame(direct, opts)
	if err != nil {
		t.Fatal(err)
	}
	frB, err := dataset.Frame(logs, opts)
	if err != nil {
		t.Fatal(err)
	}
	selA, err := core.SelectFeatures(frA, core.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	selB, err := core.SelectFeatures(frB, core.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(selA.Features) != len(selB.Features) {
		t.Fatalf("selection sizes differ: %v vs %v", selA.Features, selB.Features)
	}
	for i := range selA.Features {
		if selA.Features[i] != selB.Features[i] {
			t.Fatalf("selection diverged after CSV round trip: %v vs %v", selA.Features, selB.Features)
		}
	}
}

// TestWEFRFindsPlantedSignatures verifies end to end — simulator,
// dataset layer, five rankers, outlier removal, complexity cutoff —
// that WEFR's selection contains each model's planted failure
// signature and excludes its planted trivial attributes.
func TestWEFRFindsPlantedSignatures(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	fleet, err := simulate.New(simulate.Config{TotalDrives: 4000, Seed: 6, AFRScale: 4})
	if err != nil {
		t.Fatal(err)
	}
	src := dataset.NewCachedSource(dataset.FleetSource{Fleet: fleet})

	// Per model: one attribute that must appear, one that must not.
	cases := []struct {
		model    smart.ModelID
		mustHave string
		mustNot  string
	}{
		{smart.MA1, "PLP", "PSC"},
		{smart.MB1, "ARS", "CEC"},
		{smart.MC1, "OCE", "ETE"},
		{smart.MC2, "UCE", "CEC"},
	}
	for _, tc := range cases {
		fr, err := dataset.Frame(src, dataset.FrameOpts{Model: tc.model, DayHi: src.Days() - 1, NegEvery: 25})
		if err != nil {
			t.Fatalf("%v: %v", tc.model, err)
		}
		sel, err := core.SelectFeatures(fr, core.Config{Seed: 6})
		if err != nil {
			t.Fatalf("%v: %v", tc.model, err)
		}
		var hasSig, hasTrivial bool
		for _, f := range sel.Features {
			if strings.HasPrefix(f, tc.mustHave) {
				hasSig = true
			}
			if strings.HasPrefix(f, tc.mustNot) {
				hasTrivial = true
			}
		}
		if !hasSig {
			t.Errorf("%v: signature %s_* missing from %v", tc.model, tc.mustHave, sel.Features)
		}
		if hasTrivial {
			t.Errorf("%v: trivial %s_* selected in %v", tc.model, tc.mustNot, sel.Features)
		}
	}
}

// TestUpdaterOverFleetHistory replays fleet history through the weekly
// updater and verifies the wear split eventually appears for a
// wear-failing model and the low group leans on wear features.
func TestUpdaterOverFleetHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	fleet, err := simulate.New(simulate.Config{TotalDrives: 4000, Seed: 7, AFRScale: 4})
	if err != nil {
		t.Fatal(err)
	}
	src := dataset.NewCachedSource(dataset.FleetSource{Fleet: fleet})
	model := smart.MC1
	u := core.NewUpdater(core.Config{Seed: 7}, 90)

	for day := 200; day < src.Days(); day += 90 {
		fr, err := dataset.Frame(src, dataset.FrameOpts{Model: model, DayHi: day, NegEvery: 40})
		if err != nil {
			t.Fatal(err)
		}
		if fr.Positives() == 0 {
			continue
		}
		curve, err := survival.ComputeAsOf(src, model, 0, day)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := u.Update(day, fr, curve); err != nil {
			t.Fatal(err)
		}
	}
	final, err := u.Current()
	if err != nil {
		t.Fatal(err)
	}
	if final.Split == nil {
		t.Fatal("updater never found the wear split for MC1")
	}
	lowHasWear := false
	for _, f := range final.Split.Low.Features {
		if strings.HasPrefix(f, "MWI") || strings.HasPrefix(f, "POH") {
			lowHasWear = true
		}
	}
	if !lowHasWear {
		t.Errorf("low group lacks wear features: %v", final.Split.Low.Features)
	}
	if len(u.History()) < 3 {
		t.Errorf("history = %d updates", len(u.History()))
	}
}

// TestCustomRankerInEnsemble verifies the public extension point: a
// user-defined ranker participates in the ensemble and an adversarial
// one is discarded by outlier removal (the examples/customranker
// scenario, asserted).
func TestCustomRankerInEnsemble(t *testing.T) {
	fleet, err := simulate.New(simulate.Config{TotalDrives: 1500, Seed: 8, AFRScale: 5})
	if err != nil {
		t.Fatal(err)
	}
	src := dataset.FleetSource{Fleet: fleet}
	fr, err := dataset.Frame(src, dataset.FrameOpts{Model: smart.MC1, DayHi: src.Days() - 1, NegEvery: 30})
	if err != nil {
		t.Fatal(err)
	}
	rankers := append(selection.DefaultRankers(8), reverseRanker{})
	sel, err := core.SelectFeatures(fr, core.Config{Rankers: rankers, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rep := range sel.Rankers {
		if rep.Name == "Reverse" {
			found = true
			if !rep.Outlier {
				t.Errorf("adversarial ranker survived (meanD %v)", rep.MeanDistance)
			}
		}
	}
	if !found {
		t.Fatal("custom ranker missing from reports")
	}
}

// reverseRanker ranks features in reverse column order — deliberately
// adversarial.
type reverseRanker struct{}

func (reverseRanker) Name() string { return "Reverse" }

func (reverseRanker) Rank(fr *frame.Frame) (selection.Result, error) {
	n := fr.NumFeatures()
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = float64(i)
	}
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = float64(n - i)
	}
	return selection.Result{Scores: scores, Ranks: ranks}, nil
}
