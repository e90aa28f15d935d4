package serve

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/engine"
	"repro/internal/featgen"
	"repro/internal/smart"
	"repro/internal/stats"
)

// featurize.go assembles one drive-day's model-input row exactly the
// way the engine's frame extraction does: the group's original
// features at the scored day, then — per feature — the generated
// window statistics, whose trailing windows look back through the
// supplied history. With at least maxWindow days of history before
// the scored day, the row is bit-identical to the engine's, so online
// scores match offline ones exactly.

// featScratch is the pooled working state of one row assembly and
// its kernel call.
type featScratch struct {
	row     []float64
	cols    [][]float64 // width one-row column views into row
	prob    [1]float64  // the kernel's output for the row
	gen     [][]float64 // nGen single-day views into genSlab
	genSlab []float64
	rolling []stats.RollingStats
}

var featPool sync.Pool

// getScratch returns scratch sized for width row columns and nGen
// generated stats per feature.
func getScratch(width, nGen int) *featScratch {
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
	if cap(fs.genSlab) < nGen {
		fs.genSlab = make([]float64, nGen)
	}
	fs.genSlab = fs.genSlab[:nGen]
	if cap(fs.gen) < nGen {
		fs.gen = make([][]float64, nGen)
	}
	fs.gen = fs.gen[:nGen]
	for i := range fs.gen {
		fs.gen[i] = fs.genSlab[i : i+1]
	}
	return fs
}

func putScratch(fs *featScratch) { featPool.Put(fs) }

// driveRow fills row with the group's model inputs for the given day
// of the series. Series columns must all have length > day; features
// the group selected must be present.
func (sv *serving) driveRow(g *groupRT, series map[smart.Feature][]float64, day int, fs *featScratch) error {
	k := len(g.feats)
	for i, ft := range g.feats {
		col, ok := series[ft]
		if !ok {
			return &reqError{code: 400, msg: fmt.Sprintf("series is missing selected feature %v", ft)}
		}
		fs.row[i] = col[day]
	}
	for fi, ft := range g.feats {
		col := series[ft]
		var err error
		fs.rolling, err = featgen.GenerateRangeInto(fs.gen, col, sv.windows, day, day, fs.rolling)
		if err != nil {
			return fmt.Errorf("serve: expand %v: %w", ft, err)
		}
		base := k + fi*g.nGen
		for j := 0; j < g.nGen; j++ {
			fs.row[base+j] = fs.gen[j][0]
		}
	}
	return nil
}

// routeMWI extracts the wear index the engine would route the day by:
// the normalized MWI column at the scored day when present, else 0 —
// the same default the engine's extraction applies to series without
// a wear column. An explicit override wins.
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
