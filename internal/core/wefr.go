// Package core implements WEFR — Wear-out-updating Ensemble Feature
// Ranking (Algorithm 1 of the DSN 2021 paper) — the repository's
// primary contribution. WEFR selects SMART learning features for SSD
// failure prediction in an automated and robust manner:
//
//  1. Run the five preliminary feature-selection approaches and collect
//     their rankings (internal/selection).
//  2. Discard rankings whose mean Kendall-tau distance to the others
//     deviates by more than 1.96 standard deviations (95% confidence)
//     from the mean — the robustness step.
//  3. Aggregate the surviving rankings by mean rank.
//  4. Determine the number of selected features automatically from the
//     ensemble of data-complexity measures (internal/complexity).
//  5. If the survival-rate-vs-MWI_N curve has a significant Bayesian
//     change point (internal/survival, internal/changepoint), split the
//     population at the corresponding MWI_N threshold and repeat 1-4
//     per wear-out group — the wear-out-updating step.
//
// The package also provides Updater, the periodic (weekly, per the
// paper) re-selection loop used in production-style deployments.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/changepoint"
	"repro/internal/complexity"
	"repro/internal/frame"
	"repro/internal/selection"
	"repro/internal/stats"
	"repro/internal/survival"
)

// Errors returned by WEFR.
var (
	// ErrNoRankers indicates a configuration with no preliminary
	// approaches.
	ErrNoRankers = errors.New("core: no rankers configured")
	// ErrNoFeatures indicates an input frame without feature columns.
	ErrNoFeatures = errors.New("core: no features")
	// ErrAllRankersFailed indicates that robust mode dropped every
	// preliminary approach, leaving nothing to aggregate.
	ErrAllRankersFailed = errors.New("core: every preliminary ranker failed")
)

// DefaultOutlierZ is the paper's ranking-outlier threshold: 1.96
// standard deviations, the 95% confidence level.
const DefaultOutlierZ = 1.96

// DefaultUpdateInterval is the paper's re-selection cadence in days
// (weekly).
const DefaultUpdateInterval = 7

// Aggregation selects how the surviving rankings are combined into the
// final ranking (line 7 of Algorithm 1). The paper uses the mean; the
// alternatives exist for the aggregation ablation.
type Aggregation int

// Rank-aggregation strategies.
const (
	// AggregateMean averages ranks (the paper's choice; equivalent to
	// Borda count up to ordering).
	AggregateMean Aggregation = iota + 1
	// AggregateMedian takes the element-wise median rank, tolerating
	// one aberrant ranking without the explicit outlier-removal step.
	AggregateMedian
	// AggregateBest takes each feature's best (minimum) rank across
	// approaches.
	AggregateBest
)

// String names the aggregation for reports.
func (a Aggregation) String() string {
	switch a {
	case AggregateMean:
		return "mean"
	case AggregateMedian:
		return "median"
	case AggregateBest:
		return "best"
	default:
		return fmt.Sprintf("Aggregation(%d)", int(a))
	}
}

// Config parameterizes WEFR. The zero value selects the paper's
// settings through withDefaults.
type Config struct {
	// Rankers are the preliminary approaches; nil means RankerSpecs
	// resolved through the selection registry.
	Rankers []selection.Ranker
	// RankerSpecs names registered approaches (selection.Register /
	// selection.Resolve keys) to build with Seed when Rankers is nil;
	// nil means the paper's five (selection.DefaultSpecs).
	// Unknown names surface as errors from SelectFeatures and Select.
	RankerSpecs []string
	// OutlierZ is the Kendall-tau outlier threshold in standard
	// deviations; 0 means DefaultOutlierZ (1.96).
	OutlierZ float64
	// Cutoff configures the automated feature-count scan; the zero
	// value uses the paper's alpha = 0.75 and log2 warm start.
	Cutoff complexity.CutoffConfig
	// Changepoint configures the survival-curve detector; the zero
	// value uses changepoint.DefaultConfig.
	Changepoint changepoint.Config
	// ZThreshold is the change-point significance threshold; 0 means
	// changepoint.DefaultZThreshold (2.5).
	ZThreshold float64
	// MinGroupPositives is the minimum positive-sample count a
	// wear-out group needs before WEFR re-selects for it (smaller
	// groups inherit the global selection); 0 means 8.
	MinGroupPositives int
	// Aggregate selects the rank-aggregation strategy; 0 means the
	// paper's AggregateMean.
	Aggregate Aggregation
	// Serial disables parallel ranker execution. WEFR runs the
	// preliminary approaches concurrently by default, which is what
	// keeps its runtime close to the slowest ranker (Exp#4).
	Serial bool
	// Seed seeds the default rankers and any randomized ranker
	// settings.
	Seed int64
	// Robust, when non-nil, hardens selection against dirty data: each
	// preliminary ranker runs under panic recovery and an optional
	// timeout, and a failing ranker is dropped from the ensemble like a
	// Kendall-tau outlier instead of aborting; a failing change-point
	// detection or wear-group re-selection degrades to the global
	// selection. Nil keeps the strict legacy behavior, in which the
	// first error aborts the whole selection.
	Robust *RobustConfig
}

// RobustConfig parameterizes robust-mode selection.
type RobustConfig struct {
	// RankerTimeout bounds each preliminary approach's runtime; an
	// approach still running after the deadline is dropped (its
	// goroutine is abandoned — rankers hold no external resources).
	// Zero means no timeout.
	RankerTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Rankers == nil && c.RankerSpecs == nil {
		c.Rankers = selection.DefaultRankers(c.Seed)
	}
	if c.OutlierZ <= 0 {
		c.OutlierZ = DefaultOutlierZ
	}
	if c.ZThreshold <= 0 {
		c.ZThreshold = changepoint.DefaultZThreshold
	}
	if c.Changepoint == (changepoint.Config{}) {
		c.Changepoint = changepoint.DefaultConfig()
	}
	if c.MinGroupPositives <= 0 {
		c.MinGroupPositives = 8
	}
	if c.Aggregate == 0 {
		c.Aggregate = AggregateMean
	}
	return c
}

// RankerReport records one preliminary approach's contribution.
type RankerReport struct {
	// Name is the approach name.
	Name string
	// Ranks are the approach's fractional feature ranks.
	Ranks []float64
	// MeanDistance is the approach's mean Kendall-tau distance to the
	// other approaches.
	MeanDistance float64
	// Outlier marks rankings discarded by the robustness step.
	Outlier bool
	// Failed marks approaches dropped before the outlier analysis
	// because they errored, panicked, or timed out (robust mode only).
	Failed bool
	// Err describes the failure when Failed is set.
	Err string
}

// Selection is WEFR's output for one feature set: the ordered selected
// features plus the evidence behind them.
type Selection struct {
	// Features are the selected feature names, most important first.
	Features []string
	// Count is len(Features), the automatically determined number.
	Count int
	// FinalRanks is the aggregated mean rank per input feature,
	// aligned with the input frame's columns.
	FinalRanks []float64
	// Order is the feature ordering induced by FinalRanks (indices
	// into the input frame's columns, best first).
	Order []int
	// Complexities is the ensemble complexity measure per feature, in
	// Order order (Complexities[i] belongs to Order[i]).
	Complexities []float64
	// Rankers reports each preliminary approach, including outliers.
	Rankers []RankerReport
}

// Result is the output of the full Algorithm 1: the global selection,
// plus per-wear-group selections when a change point was found.
type Result struct {
	// Global is the selection over all SSDs of the model (lines 1-8).
	Global Selection
	// Split describes the wear-out update (lines 9-15); nil when the
	// survival curve has no significant change point (e.g. MB1/MB2).
	Split *WearSplit
	// Notes lists degradations taken in robust mode: a skipped change
	// point or a wear group that inherited the global selection after
	// its own re-selection failed. Empty on a clean run.
	Notes []string
}

// WearSplit is the wear-out-updating state: the MWI_N threshold at the
// survival change point and the per-group selections.
type WearSplit struct {
	// ThresholdMWI separates the groups: Low is MWI_N < threshold.
	ThresholdMWI float64
	// Z is the change point's significance.
	Z float64
	// Low and High are the per-group selections. Either may equal the
	// global selection when a group lacked sufficient positives.
	Low, High Selection
	// LowRefit and HighRefit report whether the group was actually
	// re-selected (vs inheriting the global selection).
	LowRefit, HighRefit bool
}

// FeaturesFor returns the selected features for a drive with the given
// MWI_N, following the wear-out split when present.
func (r Result) FeaturesFor(mwi float64) []string {
	if r.Split == nil {
		return r.Global.Features
	}
	if mwi < r.Split.ThresholdMWI {
		return r.Split.Low.Features
	}
	return r.Split.High.Features
}

// SelectFeatures runs lines 1-8 of Algorithm 1 on a learning frame:
// preliminary rankings, Kendall-tau outlier removal, mean-rank
// aggregation, and the automated complexity cutoff.
func SelectFeatures(fr *frame.Frame, cfg Config) (Selection, error) {
	cfg = cfg.withDefaults()
	if cfg.Rankers == nil && cfg.RankerSpecs != nil {
		rankers, err := selection.ResolveAll(cfg.RankerSpecs, cfg.Seed)
		if err != nil {
			return Selection{}, fmt.Errorf("core: %w", err)
		}
		cfg.Rankers = rankers
	}
	if len(cfg.Rankers) == 0 {
		return Selection{}, ErrNoRankers
	}
	if fr == nil || fr.NumFeatures() == 0 {
		return Selection{}, ErrNoFeatures
	}

	// Lines 3-5: rankings from every preliminary approach, in parallel
	// unless configured serial. Robust mode guards each approach with
	// panic recovery and the configured timeout.
	rank := func(r selection.Ranker) ([]float64, error) {
		res, err := r.Rank(fr)
		return res.Ranks, err
	}
	if cfg.Robust != nil {
		rank = func(r selection.Ranker) ([]float64, error) {
			return rankGuarded(r, fr, cfg.Robust.RankerTimeout)
		}
	}
	ranks := make([][]float64, len(cfg.Rankers))
	errs := make([]error, len(cfg.Rankers))
	if cfg.Serial {
		for i, r := range cfg.Rankers {
			ranks[i], errs[i] = rank(r)
		}
	} else {
		var wg sync.WaitGroup
		for i, r := range cfg.Rankers {
			wg.Add(1)
			go func(i int, r selection.Ranker) {
				defer wg.Done()
				ranks[i], errs[i] = rank(r)
			}(i, r)
		}
		wg.Wait()
	}

	// A ranker failure is fatal in strict mode; robust mode drops the
	// approach from the ensemble, as the paper drops outlier rankings.
	okRankers, okRanks := cfg.Rankers, ranks
	var failedReports []RankerReport
	if cfg.Robust == nil {
		for i, err := range errs {
			if err != nil {
				return Selection{}, fmt.Errorf("core: ranker %s: %w", cfg.Rankers[i].Name(), err)
			}
		}
	} else {
		okRankers, okRanks = nil, nil
		for i, err := range errs {
			if err != nil {
				failedReports = append(failedReports, RankerReport{
					Name: cfg.Rankers[i].Name(), Failed: true, Err: err.Error(),
				})
				continue
			}
			okRankers = append(okRankers, cfg.Rankers[i])
			okRanks = append(okRanks, ranks[i])
		}
		if len(okRanks) == 0 {
			return Selection{}, fmt.Errorf("%w: first failure: %s: %s",
				ErrAllRankersFailed, failedReports[0].Name, failedReports[0].Err)
		}
	}

	// Line 6: discard rankings with outlying mean Kendall-tau distance.
	reports, kept, err := removeOutliers(okRankers, okRanks, cfg.OutlierZ)
	if err != nil {
		return Selection{}, err
	}
	reports = append(reports, failedReports...)

	// Line 7: final ranking = aggregate of the surviving rankings
	// (mean per the paper; median/best for the aggregation ablation).
	var final []float64
	switch cfg.Aggregate {
	case AggregateMean:
		final, err = stats.MeanRanks(kept)
	case AggregateMedian:
		final, err = stats.MedianRanks(kept)
	case AggregateBest:
		final, err = stats.MinRanks(kept)
	default:
		err = fmt.Errorf("core: unknown aggregation %v", cfg.Aggregate)
	}
	if err != nil {
		return Selection{}, fmt.Errorf("core: aggregate rankings: %w", err)
	}
	order := stats.ArgsortAscending(final)

	// Line 8: automated feature count from the complexity ensemble.
	comps := make([]float64, len(order))
	for i, f := range order {
		c, err := complexity.Ensemble(fr.Col(f), fr.Labels())
		if err != nil {
			return Selection{}, fmt.Errorf("core: complexity of %s: %w", fr.Names()[f], err)
		}
		comps[i] = c
	}
	count, err := complexity.AutoCutoff(comps, cfg.Cutoff)
	if err != nil {
		return Selection{}, fmt.Errorf("core: auto cutoff: %w", err)
	}

	names := make([]string, count)
	for i := 0; i < count; i++ {
		names[i] = fr.Names()[order[i]]
	}
	return Selection{
		Features:     names,
		Count:        count,
		FinalRanks:   final,
		Order:        order,
		Complexities: comps,
		Rankers:      reports,
	}, nil
}

// rankGuarded runs one preliminary approach under panic recovery and
// an optional timeout. On timeout the approach's goroutine is
// abandoned (it completes into a buffered channel and is collected).
func rankGuarded(r selection.Ranker, fr *frame.Frame, timeout time.Duration) ([]float64, error) {
	type out struct {
		ranks []float64
		err   error
	}
	ch := make(chan out, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- out{err: fmt.Errorf("panic: %v", p)}
			}
		}()
		res, err := r.Rank(fr)
		ch <- out{ranks: res.Ranks, err: err}
	}()
	if timeout <= 0 {
		o := <-ch
		return o.ranks, o.err
	}
	select {
	case o := <-ch:
		return o.ranks, o.err
	case <-time.After(timeout):
		return nil, fmt.Errorf("timed out after %v", timeout)
	}
}

// removeOutliers computes pairwise Kendall-tau distances between the
// rankings, flags approaches whose mean distance z-score exceeds
// outlierZ, and returns the per-ranker reports plus the surviving
// rankings. At least two rankings always survive: with fewer, the mean
// would degenerate to a single approach and lose robustness.
func removeOutliers(rankers []selection.Ranker, ranks [][]float64, outlierZ float64) ([]RankerReport, [][]float64, error) {
	n := len(ranks)
	reports := make([]RankerReport, n)
	if n == 1 {
		reports[0] = RankerReport{Name: rankers[0].Name(), Ranks: ranks[0]}
		return reports, ranks, nil
	}

	meanD := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d, err := stats.KendallTauDistance(ranks[i], ranks[j])
			if err != nil {
				return nil, nil, fmt.Errorf("core: kendall distance %s vs %s: %w", rankers[i].Name(), rankers[j].Name(), err)
			}
			sum += float64(d)
		}
		meanD[i] = sum / float64(n-1)
	}
	mu, variance, err := stats.MeanVariance(meanD)
	if err != nil {
		return nil, nil, fmt.Errorf("core: outlier stats: %w", err)
	}
	sd := math.Sqrt(variance)

	outlier := make([]bool, n)
	nOut := 0
	if sd > 0 {
		for i := range meanD {
			if (meanD[i]-mu)/sd > outlierZ {
				outlier[i] = true
				nOut++
			}
		}
	}
	// Keep at least two rankings: un-flag the least-deviant outliers.
	for n-nOut < 2 && nOut > 0 {
		worstKeep := -1
		for i := range outlier {
			if outlier[i] && (worstKeep < 0 || meanD[i] < meanD[worstKeep]) {
				worstKeep = i
			}
		}
		outlier[worstKeep] = false
		nOut--
	}

	var kept [][]float64
	for i := range ranks {
		reports[i] = RankerReport{
			Name:         rankers[i].Name(),
			Ranks:        ranks[i],
			MeanDistance: meanD[i],
			Outlier:      outlier[i],
		}
		if !outlier[i] {
			kept = append(kept, ranks[i])
		}
	}
	return reports, kept, nil
}

// Select runs the full Algorithm 1: the global selection over the
// frame, then — when the survival curve has a significant change point
// — per-wear-group re-selection using the frame's per-sample MWI
// metadata. Pass an empty curve (zero Curve) to skip the wear-out
// update (the "WEFR (No update)" baseline of Exp#3).
func Select(fr *frame.Frame, curve survival.Curve, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	global, err := SelectFeatures(fr, cfg)
	if err != nil {
		return Result{}, err
	}
	res := Result{Global: global}

	if curve.Len() == 0 {
		return res, nil
	}
	cp, found, err := curve.DetectChangePoint(cfg.Changepoint, cfg.ZThreshold)
	if err != nil {
		// A curve corrupted past detection (non-finite survival rates)
		// degrades to no wear-out update in robust mode.
		if cfg.Robust != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("change point skipped: %v", err))
			return res, nil
		}
		return Result{}, fmt.Errorf("core: change point: %w", err)
	}
	if !found {
		return res, nil
	}

	split := &WearSplit{ThresholdMWI: cp.MWI, Z: cp.Z, Low: global, High: global}
	lowFr := fr.FilterRows(func(i int) bool { return fr.Meta(i).MWI < cp.MWI })
	highFr := fr.FilterRows(func(i int) bool { return fr.Meta(i).MWI >= cp.MWI })

	if groupUsable(lowFr, cfg.MinGroupPositives) {
		sel, err := SelectFeatures(lowFr, cfg)
		if err != nil {
			if cfg.Robust == nil {
				return Result{}, fmt.Errorf("core: low-MWI group: %w", err)
			}
			res.Notes = append(res.Notes, fmt.Sprintf("low-MWI group inherits global selection: %v", err))
		} else {
			split.Low, split.LowRefit = sel, true
		}
	}
	if groupUsable(highFr, cfg.MinGroupPositives) {
		sel, err := SelectFeatures(highFr, cfg)
		if err != nil {
			if cfg.Robust == nil {
				return Result{}, fmt.Errorf("core: high-MWI group: %w", err)
			}
			res.Notes = append(res.Notes, fmt.Sprintf("high-MWI group inherits global selection: %v", err))
		} else {
			split.High, split.HighRefit = sel, true
		}
	}
	res.Split = split
	return res, nil
}

// groupUsable reports whether a wear-out group has enough signal to
// re-select features: both classes present and a minimum number of
// positives.
func groupUsable(fr *frame.Frame, minPositives int) bool {
	pos := fr.Positives()
	return pos >= minPositives && pos < fr.NumRows()
}
