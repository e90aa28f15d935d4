package dataset

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/smart"
)

// DefaultMaxGap bounds last-observation-carried-forward imputation: a
// missing run longer than this many days past the last finite reading
// stays missing (masked) rather than being filled with stale data.
const DefaultMaxGap = 14

// SanitizeOpts configures per-drive series cleaning, applied before a
// selection frame or an engine pass reads the series. The zero value
// scrubs nothing but still imputes with the default gap bound.
type SanitizeOpts struct {
	// MaxGap bounds forward-fill imputation in days; 0 means
	// DefaultMaxGap. Leading missing runs are back-filled from the
	// first finite reading under the same bound.
	MaxGap int
	// Sentinels lists bogus reading values (firmware error codes,
	// unsigned-overflow artifacts) scrubbed to missing before
	// imputation. Values are matched exactly.
	Sentinels []float64
	// MissMask asks the engine to append one "<feature>.miss" cell per
	// original feature to the rows it trains on and scores: 1 where the
	// reading was missing or a sentinel before imputation (Missing), 0
	// otherwise. The mask lets the model distinguish imputed from
	// observed readings. Selection frames ignore it.
	MissMask bool
	// Counter, when non-nil, accumulates detected-defect counts across
	// extractions. Safe for concurrent use.
	Counter *DefectCounter
}

func (s *SanitizeOpts) maxGap() int {
	if s.MaxGap <= 0 {
		return DefaultMaxGap
	}
	return s.MaxGap
}

// Clean writes the sanitized copy of col into dst, which must have
// len(col) entries: sentinels scrubbed to missing, then bounded
// imputation. The column's defect counts go to Counter. col is not
// modified.
func (s *SanitizeOpts) Clean(dst, col []float64) {
	copy(dst, col)
	s.count(sanitizeColumn(dst, s))
}

// Missing reports whether a raw reading is missing before imputation
// (non-finite, or one of Sentinels): the value of its ".miss" mask
// cell.
func (s *SanitizeOpts) Missing(v float64) bool {
	return v-v != 0 || slices.Contains(s.Sentinels, v)
}

// count adds one sanitization's defect counts to Counter.
func (s *SanitizeOpts) count(sentinels, imputed, residual int64) {
	if s.Counter != nil {
		s.Counter.sentinelCells.Add(sentinels)
		s.Counter.imputedCells.Add(imputed)
		s.Counter.residualCells.Add(residual)
	}
}

// DefectCounter tallies the dirty-data conditions the sanitizer
// detected and what it did about them. Counts are per sanitized cell:
// building several frames over the same drives counts the same
// underlying defect once per extraction, and an engine pass (training
// or scoring) counts each drive's read columns once.
type DefectCounter struct {
	sentinelCells atomic.Int64
	imputedCells  atomic.Int64
	residualCells atomic.Int64
}

// DefectStats is a point-in-time snapshot of a DefectCounter.
type DefectStats struct {
	// SentinelCells counts readings scrubbed for matching a sentinel.
	SentinelCells int64 `json:"sentinel_cells"`
	// ImputedCells counts missing readings filled by bounded LOCF.
	ImputedCells int64 `json:"imputed_cells"`
	// ResidualCells counts readings still missing after imputation
	// (gaps longer than MaxGap, or all-missing columns); downstream
	// learners see these as NaN and rely on missing-aware splits.
	ResidualCells int64 `json:"residual_cells"`
}

// Snapshot returns the current counts.
func (c *DefectCounter) Snapshot() DefectStats {
	if c == nil {
		return DefectStats{}
	}
	return DefectStats{
		SentinelCells: c.sentinelCells.Load(),
		ImputedCells:  c.imputedCells.Load(),
		ResidualCells: c.residualCells.Load(),
	}
}

// sanitizeSeries returns cleaned copies of the columns extractDrive
// will read: feats plus MWI_N, which drives the metadata. The input map
// and its slices are never modified, so sources that share backing
// arrays (the cache) stay intact.
func sanitizeSeries(series map[smart.Feature][]float64, feats []smart.Feature, san *SanitizeOpts) map[smart.Feature][]float64 {
	out := make(map[smart.Feature][]float64, len(feats)+1)
	for _, ft := range append(slices.Clip(feats), mwiFeature) {
		if col, ok := series[ft]; ok && out[ft] == nil {
			out[ft] = make([]float64, len(col))
			san.Clean(out[ft], col)
		}
	}
	return out
}

// sanitizeColumn cleans one series in place: sentinel scrub, then
// bounded LOCF imputation with leading backfill.
func sanitizeColumn(col []float64, san *SanitizeOpts) (sentinels, imputed, residual int64) {
	firstFinite := -1
	for day, v := range col {
		for _, s := range san.Sentinels {
			if v == s {
				col[day] = math.NaN()
				sentinels++
				break
			}
		}
		// Non-finite readings (NaN from gaps/dropout, ±Inf from
		// overflow) are all treated as missing.
		if v := col[day]; v-v != 0 {
			col[day] = math.NaN()
		} else if firstFinite < 0 {
			firstFinite = day
		}
	}
	maxGap := san.maxGap()
	lastFinite := -1
	for day, v := range col {
		if v == v {
			lastFinite = day
			continue
		}
		if lastFinite >= 0 && day-lastFinite <= maxGap {
			col[day] = col[lastFinite]
			imputed++
		}
	}
	// Leading backfill: a series that starts mid-gap borrows its first
	// finite reading, under the same staleness bound.
	if firstFinite > 0 && firstFinite <= maxGap {
		for day := 0; day < firstFinite; day++ {
			col[day] = col[firstFinite]
			imputed++
		}
	}
	for _, v := range col {
		if v != v {
			residual++
		}
	}
	return sentinels, imputed, residual
}
