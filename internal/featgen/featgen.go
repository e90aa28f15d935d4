// Package featgen implements the statistical feature generation of
// Section V-A of the WEFR paper: for each original (selected) SMART
// feature, the maximum, minimum, mean, standard deviation, range
// (difference between maximum and minimum), and recency-weighted moving
// average over trailing 3-day and 7-day windows, producing 12 generated
// features per original feature.
package featgen

import (
	"errors"
	"fmt"

	"repro/internal/stats"
)

// DefaultWindows are the paper's window lengths in days.
var DefaultWindows = []int{3, 7}

// statNames are the per-window statistic suffixes, in output order.
var statNames = [...]string{"max", "min", "mean", "std", "range", "wma"}

// StatsPerWindow is the number of statistics generated per window.
const StatsPerWindow = len(statNames)

// ErrNoWindows indicates an empty window list.
var ErrNoWindows = errors.New("featgen: no windows")

// Names returns the generated feature names for one base feature, in
// the same order Generate emits columns: for each window, the six
// statistics suffixed ".<stat><window>" (e.g. "UCE_R.max3").
func Names(base string, windows []int) []string {
	out := make([]string, 0, len(windows)*StatsPerWindow)
	for _, w := range windows {
		for _, s := range statNames {
			out = append(out, fmt.Sprintf("%s.%s%d", base, s, w))
		}
	}
	return out
}

// Generate computes the generated feature columns for a daily series.
// The result has len(windows)*StatsPerWindow columns, each of the same
// length as the input; early days use the partial window available so
// far, matching stats.Rolling.
func Generate(series []float64, windows []int) ([][]float64, error) {
	if len(windows) == 0 {
		return nil, ErrNoWindows
	}
	if len(series) == 0 {
		out := make([][]float64, len(windows)*StatsPerWindow)
		for i := range out {
			out[i] = []float64{}
		}
		return out, nil
	}
	return GenerateRange(series, windows, 0, len(series)-1)
}

// GenerateRange computes the generated feature columns only for days
// from through to (inclusive): column index t holds day from+t, and
// values are identical to Generate(series, windows) sliced to that day
// range (trailing windows still look back past `from` into the full
// series). Scoring passes over a short day window of a long series use
// this to skip regenerating statistics for the whole history.
func GenerateRange(series []float64, windows []int, from, to int) ([][]float64, error) {
	if len(windows) == 0 {
		return nil, ErrNoWindows
	}
	out := make([][]float64, 0, len(windows)*StatsPerWindow)
	for _, w := range windows {
		rs, err := stats.RollingRange(series, w, from, to)
		if err != nil {
			return nil, fmt.Errorf("featgen: window %d: %w", w, err)
		}
		cols := make([][]float64, StatsPerWindow)
		for i := range cols {
			cols[i] = make([]float64, to-from+1)
		}
		for t, r := range rs {
			cols[0][t] = r.Max
			cols[1][t] = r.Min
			cols[2][t] = r.Mean
			cols[3][t] = r.Std
			cols[4][t] = r.Range
			cols[5][t] = r.WMA
		}
		out = append(out, cols...)
	}
	return out, nil
}

// GenerateRangeInto is GenerateAt writing rows 0..to-from of dst,
// whose columns must each have length to-from+1. It stays as the entry
// point of the perfbench replay harness; the engine's row fill calls
// GenerateAt.
func GenerateRangeInto(dst [][]float64, series []float64, windows []int, from, to int, scratch []stats.RollingStats) ([]stats.RollingStats, error) {
	return GenerateAt(dst, 0, series, windows, from, to, scratch)
}

// GenerateAt is GenerateRange writing into caller-provided storage at a
// row offset: dst must hold NumGenerated(windows) columns, and day
// from+t's statistics go to row at+t of each, so every column needs at
// least at+to-from+1 rows. scratch (which may be nil) is a reusable
// rolling-stats buffer that is returned, possibly regrown, for the next
// call. Other than growing scratch on first use, it allocates nothing.
func GenerateAt(dst [][]float64, at int, series []float64, windows []int, from, to int, scratch []stats.RollingStats) ([]stats.RollingStats, error) {
	if len(windows) == 0 {
		return scratch, ErrNoWindows
	}
	width := to - from + 1
	if len(dst) != NumGenerated(windows) {
		return scratch, fmt.Errorf("featgen: %d destination columns, need %d", len(dst), NumGenerated(windows))
	}
	if cap(scratch) < width {
		scratch = make([]stats.RollingStats, width)
	}
	rs := scratch[:max(width, 0)] // an empty range fails in RollingRangeInto
	for wi, w := range windows {
		if err := stats.RollingRangeInto(rs, series, w, from, to); err != nil {
			return scratch, fmt.Errorf("featgen: window %d: %w", w, err)
		}
		cols := dst[wi*StatsPerWindow : (wi+1)*StatsPerWindow]
		maxs, mins, means := cols[0][at:at+width], cols[1][at:at+width], cols[2][at:at+width]
		stds, ranges, wmas := cols[3][at:at+width], cols[4][at:at+width], cols[5][at:at+width]
		for t, r := range rs {
			maxs[t] = r.Max
			mins[t] = r.Min
			means[t] = r.Mean
			stds[t] = r.Std
			ranges[t] = r.Range
			wmas[t] = r.WMA
		}
	}
	return scratch, nil
}

// NumGenerated returns the number of generated features per original
// feature for the given windows.
func NumGenerated(windows []int) int { return len(windows) * StatsPerWindow }
