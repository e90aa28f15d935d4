package serve

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/engine"
	"repro/internal/smart"
)

// featScratch is the pooled working state of one row assembly and
// its kernel call.
type featScratch struct {
	row  []float64
	cols [][]float64 // width one-row column views into row
	prob [1]float64  // the kernel's output for the row
	feat [][]float64 // the group's feature columns, in GroupFeatures order
	rs   engine.RowScratch
}

var featPool sync.Pool

// getScratch returns scratch sized for a width-column row of k
// selected features.
func getScratch(width, k int) *featScratch {
	fs, _ := featPool.Get().(*featScratch)
	if fs == nil {
		fs = &featScratch{}
	}
	if cap(fs.row) < width {
		fs.row = make([]float64, width)
	}
	fs.row = fs.row[:width]
	if cap(fs.cols) < width {
		fs.cols = make([][]float64, width)
	}
	fs.cols = fs.cols[:width]
	for i := range fs.cols {
		fs.cols[i] = fs.row[i : i+1]
	}
	if cap(fs.feat) < k {
		fs.feat = make([][]float64, k)
	}
	fs.feat = fs.feat[:k]
	return fs
}

func putScratch(fs *featScratch) { featPool.Put(fs) }

// driveRow fills fs.row with the group's model inputs for the given
// day of the series (engine.Scorer.FillRow). Series columns must all
// have length > day; features the group selected must be present.
func (sv *serving) driveRow(g *groupRT, series map[smart.Feature][]float64, day int, fs *featScratch) error {
	for i, ft := range g.feats {
		col, ok := series[ft]
		if !ok {
			return &reqError{code: 400, msg: fmt.Sprintf("series is missing selected feature %v", ft)}
		}
		fs.feat[i] = col
	}
	err := sv.scorer.FillRow(g.index, fs.feat, day, fs.row, &fs.rs)
	clear(fs.feat) // do not pin the request's series in the pool
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// routeMWI extracts the wear index the engine would route the day by:
// the normalized MWI column at the scored day when present, else 0 —
// the same default the engine's pass applies to series without a wear
// column. An explicit override wins.
func routeMWI(series map[smart.Feature][]float64, day int, override *float64) float64 {
	if override != nil {
		return *override
	}
	if col, ok := series[engine.MWIFeature]; ok && day < len(col) {
		return col[day]
	}
	return 0
}

// checkSeries validates an inline series upload against the serving
// snapshot: parseable feature names, equal column lengths, and a
// bounded span. It returns the parsed columns and the common length.
func (sv *serving) checkSeries(raw map[string][]float64, maxDays int) (map[smart.Feature][]float64, int, error) {
	if len(raw) == 0 {
		return nil, 0, &reqError{code: 400, msg: "series is empty"}
	}
	cols := make(map[smart.Feature][]float64, len(raw))
	n := -1
	for name, vals := range raw {
		ft, err := smart.ParseFeature(name)
		if err != nil {
			return nil, 0, &reqError{code: 400, msg: fmt.Sprintf("unknown feature %q", name)}
		}
		if len(vals) == 0 {
			return nil, 0, &reqError{code: 400, msg: fmt.Sprintf("feature %q has an empty series", name)}
		}
		if len(vals) > maxDays {
			return nil, 0, &reqError{code: 413, msg: fmt.Sprintf("feature %q has %d days, limit %d", name, len(vals), maxDays)}
		}
		if n < 0 {
			n = len(vals)
		} else if len(vals) != n {
			return nil, 0, &reqError{code: 400, msg: fmt.Sprintf("feature %q has %d days, other columns have %d", name, len(vals), n)}
		}
		for _, v := range vals {
			if math.IsInf(v, 0) {
				return nil, 0, &reqError{code: 400, msg: fmt.Sprintf("feature %q contains an infinite value", name)}
			}
		}
		cols[ft] = vals
	}
	return cols, n, nil
}
