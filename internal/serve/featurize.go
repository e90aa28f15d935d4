package serve

import (
	"fmt"
	"sync"

	"repro/internal/engine"
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
// day of the drive's columns (engine.Scorer.FillRow). Columns must all
// have length > day; features the group selected must be present.
func (sv *serving) driveRow(g *groupRT, tbl *seriesTable, day int, fs *featScratch) error {
	for i, fi := range g.idx {
		col := tbl[fi]
		if col == nil {
			return &reqError{code: 400, msg: fmt.Sprintf("series is missing selected feature %v", g.feats[i])}
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

// mwiIndex is the routing wear column's place in a seriesTable.
var mwiIndex = engine.MWIFeature.Index()

// routeMWI extracts the wear index the engine would route the day by:
// the normalized MWI column at the scored day when present, else 0 —
// the same default the engine's pass applies to series without a wear
// column. An explicit override wins.
func routeMWI(tbl *seriesTable, day int, override *float64) float64 {
	if override != nil {
		return *override
	}
	if col := tbl[mwiIndex]; day < len(col) {
		return col[day]
	}
	return 0
}
