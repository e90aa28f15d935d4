package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/smart"
	"repro/internal/textplot"
)

// MethodScore is one method's accuracy on one model (or overall).
type MethodScore struct {
	Precision float64
	Recall    float64
	F05       float64
	Confusion metrics.Confusion
}

func scoreOf(c metrics.Confusion) MethodScore {
	return MethodScore{Precision: c.Precision(), Recall: c.Recall(), F05: c.F05(), Confusion: c}
}

// Exp1Result is the robust-feature-selection comparison (Table VI):
// prediction accuracy of no selection, the five fixed-percentage
// baselines (each at its best swept percentage, as the paper tunes
// them), and WEFR, per model and overall.
type Exp1Result struct {
	Methods []string
	Models  []smart.ModelID
	// Scores[method][model] is the per-model accuracy; Overall[method]
	// merges the confusions over all models.
	Scores  [][]MethodScore
	Overall []MethodScore
	// BestPercent[method][model] records the swept percentage the
	// baselines peaked at (0 for non-swept methods).
	BestPercent [][]float64
}

// Exp1 runs Table VI. For each of the five preliminary approaches, the
// fixed selected-feature percentage is swept over the configured grid
// and the best F0.5 per model is reported, mirroring the paper's
// tuning; WEFR and no-selection run as-is. Rankings are computed once
// per (model, phase) and truncated per sweep point, so the sweep only
// pays for model training.
func (h *Harness) Exp1() (Exp1Result, error) {
	cfg := h.pipelineConfig()
	phases := h.phases()
	rankers, err := h.rankers()
	if err != nil {
		return Exp1Result{}, err
	}

	methods := []string{"No feature selection"}
	for _, rk := range rankers {
		methods = append(methods, rk.Name())
	}
	methods = append(methods, "WEFR")

	res := Exp1Result{
		Methods:     methods,
		Models:      h.cfg.Models,
		Scores:      make([][]MethodScore, len(methods)),
		BestPercent: make([][]float64, len(methods)),
		Overall:     make([]MethodScore, len(methods)),
	}
	for i := range methods {
		res.Scores[i] = make([]MethodScore, len(h.cfg.Models))
		res.BestPercent[i] = make([]float64, len(h.cfg.Models))
	}
	overall := make([]metrics.Confusion, len(methods))

	for mi, m := range h.cfg.Models {
		// Per-method confusion per swept percentage, merged over phases.
		sweep := make([][]metrics.Confusion, len(rankers))
		for i := range sweep {
			sweep[i] = make([]metrics.Confusion, len(h.cfg.SweepPercents))
		}
		var noSel, wefr metrics.Confusion

		for _, ph := range phases {
			pd, err := engine.PreparePhase(h.src, m, ph, cfg)
			if err != nil {
				return Exp1Result{}, fmt.Errorf("experiments: exp1 %v: %w", m, err)
			}
			pr, err := pd.RunSelector(pipeline.NoSelection{})
			if err != nil {
				return Exp1Result{}, fmt.Errorf("experiments: exp1 no-selection on %v: %w", m, err)
			}
			noSel.Merge(pr.Confusion)

			for ri, rk := range rankers {
				ranked, err := rk.Rank(pd.SelFrame)
				if err != nil {
					return Exp1Result{}, fmt.Errorf("experiments: exp1 %s on %v: %w", rk.Name(), m, err)
				}
				for pi, pct := range h.cfg.SweepPercents {
					var names []string
					for _, f := range ranked.TopPercent(pct) {
						names = append(names, pd.SelFrame.Names()[f])
					}
					pr, err := pd.RunSelection(rk.Name(), engine.SelectorResult{All: names})
					if err != nil {
						return Exp1Result{}, fmt.Errorf("experiments: exp1 %s@%.0f%% on %v: %w", rk.Name(), pct*100, m, err)
					}
					sweep[ri][pi].Merge(pr.Confusion)
				}
			}

			pr, err = pd.RunSelector(pipeline.WEFR{Config: h.wefrConfig()})
			if err != nil {
				return Exp1Result{}, fmt.Errorf("experiments: exp1 wefr on %v: %w", m, err)
			}
			wefr.Merge(pr.Confusion)
		}

		res.Scores[0][mi] = scoreOf(noSel)
		overall[0].Merge(noSel)
		for ri := range rankers {
			best := sweep[ri][0]
			bestPct := h.cfg.SweepPercents[0]
			for pi, c := range sweep[ri] {
				if c.F05() > best.F05() {
					best = c
					bestPct = h.cfg.SweepPercents[pi]
				}
			}
			res.Scores[ri+1][mi] = scoreOf(best)
			res.BestPercent[ri+1][mi] = bestPct
			overall[ri+1].Merge(best)
		}
		wi := len(methods) - 1
		res.Scores[wi][mi] = scoreOf(wefr)
		overall[wi].Merge(wefr)
	}
	for i := range methods {
		res.Overall[i] = scoreOf(overall[i])
	}
	return res, nil
}

// wefrConfig assembles the WEFR core configuration from the harness.
func (h *Harness) wefrConfig() core.Config {
	cfg := core.Config{
		Seed:        h.cfg.Seed,
		RankerSpecs: h.cfg.RankerSpecs,
	}
	if h.cfg.Robust {
		cfg.Robust = &core.RobustConfig{}
	}
	return cfg
}

// Render formats Table VI.
func (r Exp1Result) Render() string {
	header := []string{"Method"}
	for _, m := range r.Models {
		header = append(header, m.String()+" P", "R", "F0.5")
	}
	header = append(header, "All P", "R", "F0.5")
	var rows [][]string
	for i, name := range r.Methods {
		row := []string{name}
		for j := range r.Models {
			s := r.Scores[i][j]
			row = append(row,
				textplot.Percent(s.Precision), textplot.Percent(s.Recall), textplot.Percent(s.F05))
		}
		o := r.Overall[i]
		row = append(row, textplot.Percent(o.Precision), textplot.Percent(o.Recall), textplot.Percent(o.F05))
		rows = append(rows, row)
	}
	return "Table VI (Exp#1): prediction accuracy per feature-selection method\n" +
		textplot.Table(header, rows)
}

// Score returns the overall score of the named method, or false.
func (r Exp1Result) Score(method string) (MethodScore, bool) {
	for i, name := range r.Methods {
		if name == method {
			return r.Overall[i], true
		}
	}
	return MethodScore{}, false
}

// ModelScore returns the named method's score on one model, or false.
func (r Exp1Result) ModelScore(method string, model smart.ModelID) (MethodScore, bool) {
	for i, name := range r.Methods {
		if name != method {
			continue
		}
		for j, m := range r.Models {
			if m == model {
				return r.Scores[i][j], true
			}
		}
	}
	return MethodScore{}, false
}
