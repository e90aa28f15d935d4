// Package rankeval is a principled evaluation harness for feature
// rankers, following the methodology of Overschie et al. ("A novel
// evaluation methodology for supervised Feature Ranking algorithms"):
// instead of judging a ranker only by the accuracy of one downstream
// model on one split, it measures, for every registered ranker plus
// the WEFR ensemble,
//
//   - stability — the mean pairwise Spearman correlation of the
//     rankings produced on B stratified bootstrap resamples of the
//     selection frame (does the ranking survive sampling noise?),
//   - seed similarity — the mean pairwise Spearman correlation of the
//     rankings produced on the full frame under S different seeds
//     (deterministic rankers score exactly 1), and
//   - AUC-vs-k — the threshold-free accuracy (drive-level ROC AUC) of
//     the downstream prediction model trained on the ranker's top-k
//     features, for each configured k.
//
// The harness runs on one (model, phase) of the staged engine workflow
// and reuses its Ingest/Featurize output across all entrants, so every
// ranker is judged on the identical frame, survival curve, and
// downstream training procedure. Results are deterministic for a fixed
// seed and JSON-serializable (non-computable metrics use the -1
// sentinel, never NaN).
package rankeval

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/frame"
	"repro/internal/selection"
	"repro/internal/smart"
	"repro/internal/stats"
	"repro/internal/textplot"
)

// WEFRSpec is the reserved entrant name for the full WEFR ensemble
// (the paper's five preliminary approaches aggregated with outlier
// removal), evaluated alongside the individual rankers.
const WEFRSpec = "WEFR"

// Options scales the evaluation.
type Options struct {
	// Specs names the registered rankers to evaluate; nil means every
	// registered ranker (selection.Registered()). The WEFR ensemble is
	// always evaluated in addition.
	Specs []string
	// Seed is the base seed: bootstrap resamples derive from it and
	// the seed-similarity sweep uses Seed..Seed+Seeds-1.
	Seed int64
	// Bootstraps is the resample count B for stability; 0 means 8.
	Bootstraps int
	// Seeds is the seed count S for cross-seed similarity; 0 means 3.
	Seeds int
	// TopK are the cut points of the AUC-vs-k curve; nil means
	// {2, 4, 8, 16}. Values above the feature count are clamped.
	TopK []int
}

func (o Options) withDefaults() Options {
	if o.Specs == nil {
		o.Specs = selection.Registered()
	}
	if o.Bootstraps == 0 {
		o.Bootstraps = 8
	}
	if o.Seeds == 0 {
		o.Seeds = 3
	}
	if o.TopK == nil {
		o.TopK = []int{2, 4, 8, 16}
	}
	return o
}

// AUCPoint is one point of an AUC-vs-k curve.
type AUCPoint struct {
	K int `json:"k"`
	// AUC is the drive-level ROC AUC of the downstream model trained
	// on the top-K features; -1 when not computable.
	AUC float64 `json:"auc"`
}

// Row is one entrant's evaluation.
type Row struct {
	// Spec is the registry spec (or WEFRSpec for the ensemble).
	Spec string `json:"spec"`
	// Name is the entrant's display name.
	Name string `json:"name"`
	// Stability is the mean pairwise Spearman correlation across the
	// bootstrap rankings; -1 when fewer than two rankings succeeded or
	// every pairwise correlation was undefined.
	Stability float64 `json:"stability"`
	// SeedSimilarity is the mean pairwise Spearman correlation across
	// the per-seed rankings; -1 when not computable.
	SeedSimilarity float64 `json:"seed_similarity"`
	// AUC is the AUC-vs-k curve, one point per requested k.
	AUC []AUCPoint `json:"auc_vs_k"`
	// Errors lists every failure hit while evaluating the entrant
	// (failed resamples, downstream training errors, ...).
	Errors []string `json:"errors,omitempty"`
}

// Result is the full evaluation report.
type Result struct {
	// Model is the drive model evaluated.
	Model string `json:"model"`
	// Samples and Features describe the selection frame.
	Samples  int `json:"samples"`
	Features int `json:"features"`
	// Bootstraps, Seeds, TopK, and Seed echo the effective options.
	Bootstraps int   `json:"bootstraps"`
	Seeds      int   `json:"seeds"`
	TopK       []int `json:"top_k"`
	Seed       int64 `json:"seed"`
	// Rows holds one evaluation per entrant, in Specs order with the
	// WEFR ensemble last.
	Rows []Row `json:"rows"`
}

// ranking is one entrant's way of producing a rank vector (1 = most
// important, aligned with the frame's feature columns) for a given
// seed.
type ranking func(seed int64, fr *frame.Frame) ([]float64, error)

// entrant is one evaluated ranking method.
type entrant struct {
	spec, name string
	rank       ranking
}

// Run evaluates the configured rankers on one (model, phase) of the
// staged engine workflow over src. All entrants share a single
// Ingest/Featurize pass; the downstream model for the AUC-vs-k curves
// is trained with cfg exactly as the experiments train theirs.
func Run(src dataset.Source, model smart.ModelID, ph engine.Phase, cfg engine.Config, opts Options) (Result, error) {
	opts = opts.withDefaults()
	entrants := make([]entrant, 0, len(opts.Specs)+1)
	for _, spec := range opts.Specs {
		r, err := selection.Resolve(spec, opts.Seed, 0)
		if err != nil {
			return Result{}, fmt.Errorf("rankeval: %w", err)
		}
		spec := spec
		entrants = append(entrants, entrant{spec, r.Name(), func(seed int64, fr *frame.Frame) ([]float64, error) {
			// Re-resolve per seed so seed-sensitive rankers actually
			// vary across the similarity sweep.
			rk, err := selection.Resolve(spec, seed, 0)
			if err != nil {
				return nil, err
			}
			res, err := rk.Rank(fr)
			if err != nil {
				return nil, err
			}
			return res.Ranks, nil
		}})
	}
	entrants = append(entrants, entrant{WEFRSpec, "WEFR ensemble", func(seed int64, fr *frame.Frame) ([]float64, error) {
		sel, err := core.SelectFeatures(fr, core.Config{Seed: seed})
		if err != nil {
			return nil, err
		}
		return sel.FinalRanks, nil
	}})

	pd, err := engine.PreparePhase(src, model, ph, cfg)
	if err != nil {
		return Result{}, fmt.Errorf("rankeval: %w", err)
	}
	fr := pd.SelFrame
	res := Result{
		Model:      model.String(),
		Samples:    fr.NumRows(),
		Features:   fr.NumFeatures(),
		Bootstraps: opts.Bootstraps,
		Seeds:      opts.Seeds,
		TopK:       append([]int(nil), opts.TopK...),
		Seed:       opts.Seed,
	}

	// One set of stratified resamples, shared by every entrant so their
	// stability numbers are comparable.
	resamples := make([]*frame.Frame, opts.Bootstraps)
	for i, idx := range bootstrapSets(fr, opts.Bootstraps, opts.Seed) {
		resamples[i] = fr.SubsetRows(idx)
	}

	for _, e := range entrants {
		row := Row{Spec: e.spec, Name: e.name, Stability: -1, SeedSimilarity: -1}
		fail := func(stage string, err error) {
			row.Errors = append(row.Errors, fmt.Sprintf("%s: %v", stage, err))
		}

		// (a) Stability under bootstrap resampling.
		var boot [][]float64
		for i, sub := range resamples {
			ranks, err := e.rank(opts.Seed, sub)
			if err != nil {
				fail(fmt.Sprintf("bootstrap %d", i), err)
				continue
			}
			boot = append(boot, ranks)
		}
		row.Stability = meanPairwiseSpearman(boot)

		// (b) Rank similarity across seeds, on the full frame. The
		// base-seed ranking doubles as the ranking the AUC-vs-k curve
		// truncates.
		var seeded [][]float64
		for s := 0; s < opts.Seeds; s++ {
			ranks, err := e.rank(opts.Seed+int64(s), fr)
			if err != nil {
				fail(fmt.Sprintf("seed %d", opts.Seed+int64(s)), err)
				continue
			}
			seeded = append(seeded, ranks)
		}
		row.SeedSimilarity = meanPairwiseSpearman(seeded)

		// (c) AUC-vs-k with the downstream model on the top-k features.
		var order []int
		if len(seeded) > 0 {
			order = stats.ArgsortAscending(seeded[0])
		}
		for _, k := range opts.TopK {
			point := AUCPoint{K: k, AUC: -1}
			if order != nil {
				n := k
				if n > len(order) {
					n = len(order)
				}
				names := make([]string, n)
				for i, f := range order[:n] {
					names[i] = fr.Names()[f]
				}
				label := fmt.Sprintf("rank-eval %s top-%d", e.name, k)
				pr, err := pd.RunSelection(label, engine.SelectorResult{All: names})
				if err != nil {
					fail(fmt.Sprintf("top-%d", k), err)
				} else if auc, err := engine.AUC(pr.Outcomes); err != nil {
					fail(fmt.Sprintf("top-%d auc", k), err)
				} else {
					point.AUC = auc
				}
			}
			row.AUC = append(row.AUC, point)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// bootstrapSets draws b stratified bootstrap index sets: positives and
// negatives are resampled with replacement separately, so every
// resample keeps the original class counts and no resample collapses
// to a single class. Deterministic in seed.
func bootstrapSets(fr *frame.Frame, b int, seed int64) [][]int {
	var pos, neg []int
	for i, y := range fr.Labels() {
		if y == 1 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng := rand.New(rand.NewSource(seed*0x9E3779B9 + 0xB00757A9))
	sets := make([][]int, b)
	for s := range sets {
		idx := make([]int, 0, fr.NumRows())
		for range pos {
			idx = append(idx, pos[rng.Intn(len(pos))])
		}
		for range neg {
			idx = append(idx, neg[rng.Intn(len(neg))])
		}
		sort.Ints(idx)
		sets[s] = idx
	}
	return sets
}

// meanPairwiseSpearman averages the Spearman correlation over all
// pairs of rank vectors. Pairs with undefined correlation (a constant
// vector) are skipped; with fewer than two vectors or no defined pair
// it returns -1.
func meanPairwiseSpearman(vecs [][]float64) float64 {
	sum, n := 0.0, 0
	for i := 0; i < len(vecs); i++ {
		for j := i + 1; j < len(vecs); j++ {
			rho, err := stats.Spearman(vecs[i], vecs[j])
			if err != nil {
				continue
			}
			sum += rho
			n++
		}
	}
	if n == 0 {
		return -1
	}
	return sum / float64(n)
}

// Render formats the evaluation as an experiments-style text table.
func (r Result) Render() string {
	header := []string{"Ranker", "Stability", "Seed-sim"}
	for _, k := range r.TopK {
		header = append(header, fmt.Sprintf("AUC@%d", k))
	}
	header = append(header, "Errors")
	var rows [][]string
	for _, row := range r.Rows {
		cells := []string{row.Name, fmtMetric(row.Stability), fmtMetric(row.SeedSimilarity)}
		for _, p := range row.AUC {
			cells = append(cells, fmtMetric(p.AUC))
		}
		cells = append(cells, fmt.Sprintf("%d", len(row.Errors)))
		rows = append(rows, cells)
	}
	return fmt.Sprintf(
		"Ranker evaluation on %s (%d samples, %d features; %d bootstraps, %d seeds, seed %d)\n",
		r.Model, r.Samples, r.Features, r.Bootstraps, r.Seeds, r.Seed) +
		textplot.Table(header, rows)
}

// fmtMetric renders a metric value, with "-" for the -1 sentinel.
func fmtMetric(v float64) string {
	if v == -1 {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}
