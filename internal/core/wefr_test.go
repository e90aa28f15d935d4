package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/changepoint"
	"repro/internal/frame"
	"repro/internal/selection"
	"repro/internal/survival"
)

// labFrame builds a frame with nSignal informative features followed by
// nNoise pure-noise features, with per-sample MWI metadata. When
// wearShift is true, the informative features only carry signal for
// low-MWI samples and a second block carries signal for high-MWI
// samples, planting the wear-dependence WEFR must discover.
func labFrame(t *testing.T, n, nSignal, nNoise int, wearShift bool, seed int64) *frame.Frame {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	y := make([]int, n)
	meta := make([]frame.Meta, n)
	for i := range y {
		if rng.Float64() < 0.25 {
			y[i] = 1
		}
		meta[i] = frame.Meta{DriveID: i, Day: i % 700, MWI: rng.Float64() * 100}
	}
	var names []string
	var cols [][]float64
	addCol := func(name string, gen func(i int) float64) {
		col := make([]float64, n)
		for i := range col {
			col[i] = gen(i)
		}
		names = append(names, name)
		cols = append(cols, col)
	}
	for s := 0; s < nSignal; s++ {
		s := s
		addCol(sigName(s), func(i int) float64 {
			active := true
			if wearShift {
				active = meta[i].MWI < 50
			}
			if active && y[i] == 1 {
				return 2.2 + rng.NormFloat64()
			}
			return rng.NormFloat64()
		})
	}
	if wearShift {
		for s := 0; s < nSignal; s++ {
			s := s
			addCol(hiName(s), func(i int) float64 {
				if meta[i].MWI >= 50 && y[i] == 1 {
					return 2.2 + rng.NormFloat64()
				}
				return rng.NormFloat64()
			})
		}
	}
	for s := 0; s < nNoise; s++ {
		addCol(noiseName(s), func(int) float64 { return rng.NormFloat64() })
	}
	fr, err := frame.New(names, cols, y, meta)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

func sigName(i int) string   { return "SIG_" + string(rune('A'+i)) }
func hiName(i int) string    { return "HI_" + string(rune('A'+i)) }
func noiseName(i int) string { return "NOISE_" + string(rune('A'+i)) }

func TestSelectFeaturesBasic(t *testing.T) {
	fr := labFrame(t, 1200, 4, 12, false, 1)
	sel, err := SelectFeatures(fr, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Count != len(sel.Features) || sel.Count < 1 {
		t.Fatalf("count = %d, features = %d", sel.Count, len(sel.Features))
	}
	if sel.Count > 10 {
		t.Errorf("selected %d of 16 features; should prune most noise", sel.Count)
	}
	// All four signal features must be selected.
	got := map[string]bool{}
	for _, f := range sel.Features {
		got[f] = true
	}
	for i := 0; i < 4; i++ {
		if !got[sigName(i)] {
			t.Errorf("signal feature %s not selected (got %v)", sigName(i), sel.Features)
		}
	}
	// Five ranker reports, aligned ranks.
	if len(sel.Rankers) != 5 {
		t.Fatalf("reports = %d", len(sel.Rankers))
	}
	for _, r := range sel.Rankers {
		if len(r.Ranks) != fr.NumFeatures() {
			t.Errorf("%s ranks len = %d", r.Name, len(r.Ranks))
		}
	}
	if len(sel.FinalRanks) != fr.NumFeatures() || len(sel.Order) != fr.NumFeatures() {
		t.Error("final ranks/order misaligned")
	}
	// Complexities ordered with Order and increasing-ish: the first
	// must be below the last (signal simpler than noise).
	if sel.Complexities[0] >= sel.Complexities[len(sel.Complexities)-1] {
		t.Errorf("complexities not increasing: %v", sel.Complexities)
	}
}

func TestSelectFeaturesErrors(t *testing.T) {
	fr := labFrame(t, 100, 1, 1, false, 2)
	if _, err := SelectFeatures(nil, Config{}); !errors.Is(err, ErrNoFeatures) {
		t.Errorf("nil frame error = %v", err)
	}
	if _, err := Select(nil, stepCurve(), Config{}); !errors.Is(err, ErrNoFeatures) {
		t.Errorf("Select nil frame error = %v", err)
	}
	if _, err := SelectFeatures(fr, Config{Rankers: []selection.Ranker{}}); !errors.Is(err, ErrNoRankers) {
		t.Errorf("no rankers error = %v", err)
	}
}

// contraryRanker returns a fixed, reversed ranking to exercise outlier
// removal.
type contraryRanker struct{}

func (contraryRanker) Name() string { return "Contrary" }
func (contraryRanker) Rank(fr *frame.Frame) (selection.Result, error) {
	n := fr.NumFeatures()
	scores := make([]float64, n)
	for i := range scores {
		// Inverse of any sane ranking: noise gets top scores.
		scores[i] = float64(i)
	}
	return selection.Result{Scores: scores, Ranks: rankOf(scores)}, nil
}

func rankOf(scores []float64) []float64 {
	n := len(scores)
	ranks := make([]float64, n)
	for i := range scores {
		r := 1.0
		for j := range scores {
			if scores[j] > scores[i] {
				r++
			}
		}
		ranks[i] = r
	}
	return ranks
}

func TestOutlierRankerRemoved(t *testing.T) {
	fr := labFrame(t, 1000, 3, 9, false, 3)
	cfg := Config{
		Rankers: append(selection.DefaultRankers(3), contraryRanker{}),
		Seed:    3,
	}
	sel, err := SelectFeatures(fr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var contrary *RankerReport
	outliers := 0
	for i := range sel.Rankers {
		if sel.Rankers[i].Outlier {
			outliers++
		}
		if sel.Rankers[i].Name == "Contrary" {
			contrary = &sel.Rankers[i]
		}
	}
	if contrary == nil {
		t.Fatal("contrary ranker missing from reports")
	}
	if !contrary.Outlier {
		t.Errorf("contrary ranker not flagged as outlier (meanD=%v)", contrary.MeanDistance)
	}
	// The contrary ranking must not drag the selection toward noise:
	// every signal feature still selected, and the count stays small.
	got := map[string]bool{}
	for _, f := range sel.Features {
		got[f] = true
	}
	for i := 0; i < 3; i++ {
		if !got[sigName(i)] {
			t.Errorf("signal %s missing despite outlier removal: %v", sigName(i), sel.Features)
		}
	}
	if sel.Count > 7 {
		t.Errorf("selected %d of 12 features; contrary ranker inflated the selection", sel.Count)
	}
}

func TestOutlierRemovalKeepsAtLeastTwo(t *testing.T) {
	// Two mutually contrary rankers: neither may be removed, since at
	// least two rankings must survive.
	fr := labFrame(t, 300, 2, 2, false, 4)
	cfg := Config{Rankers: []selection.Ranker{contraryRanker{}, selection.Pearson{}}}
	sel, err := SelectFeatures(fr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, r := range sel.Rankers {
		if !r.Outlier {
			kept++
		}
	}
	if kept < 2 {
		t.Errorf("kept %d rankings, want >= 2", kept)
	}
}

func TestSerialMatchesParallel(t *testing.T) {
	fr := labFrame(t, 800, 3, 8, false, 5)
	a, err := SelectFeatures(fr, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelectFeatures(fr, Config{Seed: 5, Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	if !equalStrings(a.Features, b.Features) {
		t.Errorf("parallel %v != serial %v", a.Features, b.Features)
	}
}

// barrierRanker delegates to a real ranker once every ranker sharing
// its entered group has started, and fails after the timeout otherwise:
// rankers that all get through ran at the same time.
type barrierRanker struct {
	selection.Ranker
	entered *sync.WaitGroup
	timeout time.Duration
}

func (r barrierRanker) Rank(fr *frame.Frame) (selection.Result, error) {
	r.entered.Done()
	all := make(chan struct{})
	go func() {
		r.entered.Wait()
		close(all)
	}()
	select {
	case <-all:
		return r.Ranker.Rank(fr)
	case <-time.After(r.timeout):
		return selection.Result{}, fmt.Errorf("barrier: not every ranker started within %v", r.timeout)
	}
}

func barrierRankers(seed int64, timeout time.Duration) []selection.Ranker {
	inner := selection.DefaultRankers(seed)
	entered := &sync.WaitGroup{}
	entered.Add(len(inner))
	out := make([]selection.Ranker, len(inner))
	for i, r := range inner {
		out[i] = barrierRanker{Ranker: r, entered: entered, timeout: timeout}
	}
	return out
}

// TestRankersRunConcurrently checks that WEFR runs its preliminary
// rankers at the same time, not one after another: each ranker blocks
// until all of them have started, which only a concurrent run passes.
// The serial ablation must fail the same barrier, so the check cannot
// pass vacuously.
func TestRankersRunConcurrently(t *testing.T) {
	fr := labFrame(t, 400, 3, 6, false, 7)
	if _, err := SelectFeatures(fr, Config{Seed: 7, Rankers: barrierRankers(7, 10*time.Second)}); err != nil {
		t.Fatalf("default path: %v", err)
	}
	_, err := SelectFeatures(fr, Config{Seed: 7, Serial: true, Rankers: barrierRankers(7, 50*time.Millisecond)})
	if err == nil || !strings.Contains(err.Error(), "barrier") {
		t.Fatalf("serial path error = %v, want a barrier timeout", err)
	}
}

// stepCurve builds a survival curve with a drop below MWI 50.
func stepCurve() survival.Curve {
	var c survival.Curve
	for v := 100; v >= 10; v-- {
		rate := 0.97
		if v < 50 {
			rate = 0.80
		}
		// Mild deterministic wiggle so the detector has texture.
		rate += 0.002 * float64(v%3)
		c.Values = append(c.Values, float64(v))
		c.Rates = append(c.Rates, rate)
		c.Counts = append(c.Counts, 100)
	}
	return c
}

func TestSelectWithWearSplit(t *testing.T) {
	fr := labFrame(t, 2500, 3, 6, true, 6)
	res, err := Select(fr, stepCurve(), Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Split == nil {
		t.Fatal("expected a wear split")
	}
	if res.Split.ThresholdMWI < 45 || res.Split.ThresholdMWI > 55 {
		t.Errorf("threshold = %v, want near 50", res.Split.ThresholdMWI)
	}
	if !res.Split.LowRefit || !res.Split.HighRefit {
		t.Errorf("groups not refit: low=%v high=%v", res.Split.LowRefit, res.Split.HighRefit)
	}
	// The low group must prefer SIG features; the high group HI
	// features.
	lowHas, highHas := map[string]bool{}, map[string]bool{}
	for _, f := range res.Split.Low.Features {
		lowHas[f] = true
	}
	for _, f := range res.Split.High.Features {
		highHas[f] = true
	}
	for i := 0; i < 3; i++ {
		if !lowHas[sigName(i)] {
			t.Errorf("low group missing %s: %v", sigName(i), res.Split.Low.Features)
		}
		if !highHas[hiName(i)] {
			t.Errorf("high group missing %s: %v", hiName(i), res.Split.High.Features)
		}
	}
	// FeaturesFor dispatches by MWI.
	if !equalStrings(res.FeaturesFor(10), res.Split.Low.Features) {
		t.Error("FeaturesFor(10) should return the low-group features")
	}
	if !equalStrings(res.FeaturesFor(90), res.Split.High.Features) {
		t.Error("FeaturesFor(90) should return the high-group features")
	}
}

func TestSelectNoCurveNoSplit(t *testing.T) {
	fr := labFrame(t, 600, 2, 4, false, 7)
	res, err := Select(fr, survival.Curve{}, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Split != nil {
		t.Error("empty curve should not split")
	}
	if !equalStrings(res.FeaturesFor(5), res.Global.Features) {
		t.Error("FeaturesFor should fall back to global")
	}
}

func TestSelectFlatCurveNoSplit(t *testing.T) {
	fr := labFrame(t, 600, 2, 4, false, 8)
	var c survival.Curve
	for v := 100; v >= 90; v-- {
		c.Values = append(c.Values, float64(v))
		c.Rates = append(c.Rates, 0.95)
		c.Counts = append(c.Counts, 50)
	}
	res, err := Select(fr, c, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Split != nil {
		t.Error("flat narrow curve should not split")
	}
}

func TestSmallGroupInheritsGlobal(t *testing.T) {
	// Nearly all samples in the high group: the low group lacks
	// positives and must inherit the global selection.
	fr := labFrame(t, 800, 2, 4, false, 9)
	// Force metadata MWI high for all but a handful of rows.
	shifted := fr.FilterRows(func(i int) bool { return true })
	_ = shifted
	res, err := Select(fr, lowTailCurve(), Config{Seed: 9, MinGroupPositives: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Split == nil {
		t.Skip("no change point on this curve; covered elsewhere")
	}
	if res.Split.LowRefit || res.Split.HighRefit {
		t.Error("groups should inherit global selection when too small")
	}
	if !equalStrings(res.Split.Low.Features, res.Global.Features) {
		t.Error("low group should equal global")
	}
}

func lowTailCurve() survival.Curve {
	var c survival.Curve
	for v := 100; v >= 20; v-- {
		rate := 0.96
		if v < 40 {
			rate = 0.7
		}
		c.Values = append(c.Values, float64(v))
		c.Rates = append(c.Rates, rate)
		c.Counts = append(c.Counts, 60)
	}
	return c
}

func TestUpdater(t *testing.T) {
	fr := labFrame(t, 900, 3, 6, false, 10)
	u := NewUpdater(Config{Seed: 10}, 7)

	if _, err := u.Current(); !errors.Is(err, ErrNotStarted) {
		t.Errorf("Current before start error = %v", err)
	}
	if _, err := u.FeaturesFor(50); !errors.Is(err, ErrNotStarted) {
		t.Errorf("FeaturesFor before start error = %v", err)
	}
	if !u.Due(0) {
		t.Error("first update should be due")
	}
	ran, err := u.Update(0, fr, survival.Curve{})
	if err != nil || !ran {
		t.Fatalf("first update = (%v, %v)", ran, err)
	}
	if u.Due(3) {
		t.Error("update should not be due 3 days later")
	}
	ran, err = u.Update(3, fr, survival.Curve{})
	if err != nil || ran {
		t.Fatalf("early update = (%v, %v), want no-op", ran, err)
	}
	if !u.Due(7) {
		t.Error("update should be due after the interval")
	}
	ran, err = u.Update(7, fr, survival.Curve{})
	if err != nil || !ran {
		t.Fatalf("second update = (%v, %v)", ran, err)
	}
	hist := u.History()
	if len(hist) != 2 {
		t.Fatalf("history = %d", len(hist))
	}
	if !hist[0].Changed {
		t.Error("first update should count as changed")
	}
	if hist[1].Changed {
		t.Error("identical second update should not count as changed")
	}
	cur, err := u.Current()
	if err != nil {
		t.Fatal(err)
	}
	feats, err := u.FeaturesFor(50)
	if err != nil {
		t.Fatal(err)
	}
	if !equalStrings(feats, cur.Global.Features) {
		t.Error("FeaturesFor mismatch")
	}
}

func TestUpdaterDefaultInterval(t *testing.T) {
	u := NewUpdater(Config{}, 0)
	if u.interval != DefaultUpdateInterval {
		t.Errorf("interval = %d, want %d", u.interval, DefaultUpdateInterval)
	}
}

func TestChangepointConfigDefaulted(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Changepoint == (changepoint.Config{}) {
		t.Error("changepoint config not defaulted")
	}
	if cfg.OutlierZ != DefaultOutlierZ || cfg.ZThreshold != changepoint.DefaultZThreshold {
		t.Error("thresholds not defaulted")
	}
	if len(cfg.Rankers) != 5 {
		t.Error("rankers not defaulted")
	}
}

func TestAggregationStrategies(t *testing.T) {
	fr := labFrame(t, 900, 3, 8, false, 11)
	for _, agg := range []Aggregation{AggregateMean, AggregateMedian, AggregateBest} {
		sel, err := SelectFeatures(fr, Config{Seed: 11, Aggregate: agg})
		if err != nil {
			t.Fatalf("%v: %v", agg, err)
		}
		got := map[string]bool{}
		for _, f := range sel.Features {
			got[f] = true
		}
		// Whatever the aggregation, the strong signals must be kept.
		for i := 0; i < 3; i++ {
			if !got[sigName(i)] {
				t.Errorf("%v: missing %s in %v", agg, sigName(i), sel.Features)
			}
		}
	}
	// Unknown aggregation fails loudly.
	if _, err := SelectFeatures(fr, Config{Seed: 11, Aggregate: Aggregation(77)}); err == nil {
		t.Error("unknown aggregation should fail")
	}
}

func TestAggregationString(t *testing.T) {
	if AggregateMean.String() != "mean" || AggregateMedian.String() != "median" || AggregateBest.String() != "best" {
		t.Error("aggregation names")
	}
	if Aggregation(9).String() != "Aggregation(9)" {
		t.Error("unknown aggregation name")
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	// WEFR results are plain exported data: deployments persist them
	// as JSON (feature lists per wear group) between weekly updates.
	fr := labFrame(t, 1500, 2, 4, true, 12)
	res, err := Select(fr, stepCurve(), Config{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !equalStrings(back.Global.Features, res.Global.Features) {
		t.Error("global features changed through JSON")
	}
	if (back.Split == nil) != (res.Split == nil) {
		t.Fatal("split presence changed through JSON")
	}
	if res.Split != nil {
		if back.Split.ThresholdMWI != res.Split.ThresholdMWI {
			t.Error("threshold changed through JSON")
		}
		if !equalStrings(back.Split.Low.Features, res.Split.Low.Features) {
			t.Error("low features changed through JSON")
		}
	}
	// FeaturesFor works identically on the restored result.
	if !equalStrings(back.FeaturesFor(10), res.FeaturesFor(10)) {
		t.Error("FeaturesFor diverged after round trip")
	}
}
