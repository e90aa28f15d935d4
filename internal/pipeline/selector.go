// Package pipeline holds the concrete feature-selection strategies of
// the WEFR paper's offline failure-prediction workflow (Section V-A):
// no selection, a single preliminary ranker at a fixed percentage, and
// the full WEFR ensemble. The workflow itself (time-split phases,
// feature generation, per-group Random Forests, recall-calibrated
// alarm thresholds, drive-level evaluation) is internal/engine; each
// strategy here implements engine.Selector.
package pipeline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/frame"
	"repro/internal/selection"
	"repro/internal/survival"
)

// NoSelection uses every learning feature — the paper's "no feature
// selection" baseline.
type NoSelection struct{}

var _ engine.Selector = NoSelection{}

// Name implements Selector.
func (NoSelection) Name() string { return "No feature selection" }

// Select implements Selector.
func (NoSelection) Select(fr *frame.Frame, _ survival.Curve) (engine.SelectorResult, error) {
	names := make([]string, fr.NumFeatures())
	copy(names, fr.Names())
	return engine.SelectorResult{All: names}, nil
}

// SingleRanker applies one preliminary approach and keeps a fixed
// percentage of the top-ranked features — the baselines of Exp#1/#2.
type SingleRanker struct {
	// Ranker is the approach.
	Ranker selection.Ranker
	// Percent is the kept fraction in (0, 1]; 0 means 0.3.
	Percent float64
}

var _ engine.Selector = SingleRanker{}

// Name implements Selector.
func (s SingleRanker) Name() string { return s.Ranker.Name() }

// Select implements Selector.
func (s SingleRanker) Select(fr *frame.Frame, _ survival.Curve) (engine.SelectorResult, error) {
	pct := s.Percent
	if pct <= 0 {
		pct = 0.3
	}
	res, err := s.Ranker.Rank(fr)
	if err != nil {
		return engine.SelectorResult{}, fmt.Errorf("pipeline: %s: %w", s.Ranker.Name(), err)
	}
	idx := res.TopPercent(pct)
	names := make([]string, len(idx))
	for i, f := range idx {
		names[i] = fr.Names()[f]
	}
	return engine.SelectorResult{All: names}, nil
}

// WEFR applies the full ensemble algorithm of internal/core.
type WEFR struct {
	// Config is the WEFR configuration (zero value = paper settings).
	Config core.Config
	// NoUpdate disables the wear-out-updating step (lines 9-15 of
	// Algorithm 1) — the "WEFR (No update)" baseline of Exp#3.
	NoUpdate bool
}

var _ engine.Selector = WEFR{}

// Name implements Selector.
func (w WEFR) Name() string {
	if w.NoUpdate {
		return "WEFR (No update)"
	}
	return "WEFR"
}

// Select implements Selector.
func (w WEFR) Select(fr *frame.Frame, curve survival.Curve) (engine.SelectorResult, error) {
	if w.NoUpdate {
		curve = survival.Curve{}
	}
	res, err := core.Select(fr, curve, w.Config)
	if err != nil {
		return engine.SelectorResult{}, fmt.Errorf("pipeline: wefr: %w", err)
	}
	out := engine.SelectorResult{All: res.Global.Features, Notes: res.Notes}
	collectDropped := func(scope string, sel core.Selection) {
		for _, rr := range sel.Rankers {
			if rr.Failed {
				out.Dropped = append(out.Dropped, fmt.Sprintf("%s%s: %s", scope, rr.Name, rr.Err))
			}
		}
	}
	collectDropped("", res.Global)
	if res.Split != nil {
		out.Split = &engine.GroupFeatures{
			ThresholdMWI: res.Split.ThresholdMWI,
			Low:          res.Split.Low.Features,
			High:         res.Split.High.Features,
		}
		if res.Split.LowRefit {
			collectDropped("low group: ", res.Split.Low)
		}
		if res.Split.HighRefit {
			collectDropped("high group: ", res.Split.High)
		}
	}
	return out, nil
}
