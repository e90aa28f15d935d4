package engine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/featgen"
	"repro/internal/frame"
	"repro/internal/smart"
	"repro/internal/stats"
)

// This file is the engine's one row assembler and window scorer, and
// the Scorer surface the serving daemon builds on: the one pass over a
// window's drives that builds the rows a phase trains on (Train) and
// scores (ScoreInto, Calibrate and Score), the row fill it shares with
// the daemon (fillRows, behind FillRow), and read-only accessors for
// the group structure, so a server can route a drive to its wear
// group, assemble that group's model-input row, and push single rows
// or batches straight through the group's compiled model.

// ScoreBuf recycles the working state of repeated scoring passes — the
// drives' column views, the groups' model-input columns and
// probabilities, per-worker row scratch, and the outcome slice — so
// callers that score the fleet over and over (the serving daemon's
// fleet endpoint, the continuous-operation controller's daily
// summaries) allocate nothing proportional to the fleet after the
// first pass. The zero value is ready to use. Outcomes returned by
// ScoreInto alias the buffer and are valid only until its next use; a
// ScoreBuf must not be used concurrently.
type ScoreBuf struct {
	refs     []dataset.DriveRef // the pass's drives, inventory order
	lo, hi   int                // the pass's window
	keep     keepRule           // the pass's row rule; nil keeps every routed day
	views    [][]float64        // drive d's columns at [d*len(reads), (d+1)*len(reads))
	wear     [][]float64        // robust passes: drive d's sanitized MWI_N
	lastDay  []int              // drive d's last visible day
	offsets  []int              // drive d's first row in group g at d*groups+g
	next     []int              // per group: the fold's next row
	errs     []error            // per chunk of drives
	totals   []int              // rows per group
	slabs    [][]float64        // per group: the backing of its input columns
	cols     [][][]float64
	probs    [][]float64
	workers  []passWorker
	outcomes []DriveOutcome
}

// passWorker is one pass goroutine's row-assembly scratch.
type passWorker struct {
	feat  [][]float64 // a group's feature columns
	cols  [][]float64 // robust passes: the drive's sanitized columns, by read
	clean [][]float64 // robust passes: cols' backing, by read
	days  [][]int     // per group: the current drive's kept days
	rs    RowScratch
}

// passChunk is the number of drives one pass goroutine claims at a
// time. Chunks only schedule work: every drive's rows land at offsets
// fixed by inventory order, so results do not depend on Workers.
const passChunk = 32

// ScoreInto scores exactly days [lo, hi] of src in one pass over the
// drives and folds them into one outcome per drive that had a scored
// day, sorted by drive ID. A drive's day is scored by the group
// PickGroup routes its MWI_N to (days no group admits are skipped),
// and the drive alarms on the first day whose probability clears that
// group's threshold.
//
// All working state comes from buf (nil means a fresh buffer): the
// returned outcomes alias it and are valid only until its next use.
func (s *Scorer) ScoreInto(src dataset.Source, lo, hi int, buf *ScoreBuf) ([]DriveOutcome, error) {
	if buf == nil {
		buf = new(ScoreBuf)
	}
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("pipeline: bad scoring window [%d, %d]", lo, hi)
	}
	if days := src.Days(); hi >= days {
		return nil, fmt.Errorf("pipeline: scoring window [%d, %d] outside dataset of %d days", lo, hi, days)
	}
	// The views and drive refs alias the source; drop them after the
	// pass so a long-lived buffer does not pin superseded data.
	defer func() {
		buf.refs = nil
		clear(buf.views)
		for w := range buf.workers {
			clear(buf.workers[w].feat)
		}
	}()
	if _, err := s.pass(src, lo, hi, buf); err != nil {
		return nil, fmt.Errorf("pipeline: snapshot scoring: %w", err)
	}
	return s.outcomes(buf), nil
}

// columnReader is satisfied by sources that hand out a drive's
// columns without building its series map (store snapshots); other
// sources are read through Series.
type columnReader interface {
	Columns(ctx context.Context, ref dataset.DriveRef, feats []smart.Feature, dst [][]float64) (int, error)
}

// mwiOn is the routing wear index of a day: the MWI_N reading, or 0
// for a drive without the column.
func mwiOn(col []float64, day int) float64 {
	if col == nil {
		return 0
	}
	return col[day]
}

// wearOf returns drive d's routing wear column in the last pass: its
// MWI_N as read, or as sanitized in a robust pass.
func (s *Scorer) wearOf(buf *ScoreBuf, d int) []float64 {
	if s.san != nil {
		return buf.wear[d]
	}
	return buf.views[d*len(s.reads)]
}

// keepRule decides whether a routed day of a drive becomes a row of a
// pass.
type keepRule func(ref dataset.DriveRef, day int) bool

// pass scores every routed day of [lo, hi] into buf and returns the
// number of rows scored: assemble, then one kernel call per group. The
// outcomes and calibration folds read the scores.
func (s *Scorer) pass(src dataset.Source, lo, hi int, buf *ScoreBuf) (int, error) {
	rows, err := s.assemble(src, lo, hi, buf, nil)
	if err != nil {
		return 0, err
	}
	buf.probs = grow(buf.probs, len(s.groups))
	for g := range s.groups {
		buf.probs[g] = grow(buf.probs[g], buf.totals[g])
		if buf.totals[g] == 0 {
			continue
		}
		if err := s.groups[g].model.PredictProbaBatch(buf.cols[g], buf.probs[g]); err != nil {
			return 0, err
		}
	}
	return rows, nil
}

// assemble writes the model-input row of every routed day of [lo, hi]
// that keep admits (nil admits all) into its group's input columns in
// buf, and returns the number of rows.
//
// It reads each drive's needed columns once (store snapshots hand them
// out without building a series map) — sanitized once per drive when
// the config is robust, routing and reported wear included — and
// writes each group's rows of the drive (fillRows, the cells FillRow
// writes), then their ".miss" cells when masks are on, straight into
// the group's columns. Each group's rows are its drives' in inventory
// order, days ascending; rolling statistics are per day, so the rows
// do not depend on Workers.
func (s *Scorer) assemble(src dataset.Source, lo, hi int, buf *ScoreBuf, keep keepRule) (int, error) {
	refs := src.DrivesOf(s.model)
	n, nr, ng := len(refs), len(s.reads), len(s.groups)
	buf.refs, buf.lo, buf.hi, buf.keep = refs, lo, hi, keep
	buf.views = grow(buf.views, n*nr)
	buf.lastDay = grow(buf.lastDay, n)
	buf.offsets = grow(buf.offsets, n*ng)
	if s.san != nil {
		buf.wear = grow(buf.wear, n)
	}
	cr, _ := src.(columnReader)

	// Read every drive once and count its kept days per group.
	err := s.forChunks(n, buf, func(_, d int) error {
		view := buf.views[d*nr : (d+1)*nr]
		var last int
		var err error
		if cr != nil {
			last, err = cr.Columns(context.TODO(), refs[d], s.reads, view)
		} else {
			var series map[smart.Feature][]float64
			series, last, err = src.Series(refs[d])
			for i, ft := range s.reads {
				view[i] = series[ft]
			}
		}
		if err != nil {
			return err
		}
		buf.lastDay[d] = last
		if s.san != nil {
			clean := buf.wear[d]
			buf.wear[d] = nil
			if raw := view[0]; raw != nil && lo <= last {
				buf.wear[d] = grow(clean, len(raw))
				s.san.Clean(buf.wear[d], raw)
			}
		}
		wear := s.wearOf(buf, d)
		count := buf.offsets[d*ng : (d+1)*ng]
		clear(count)
		for day := lo; day <= min(hi, last); day++ {
			if g := s.route(buf, d, wear, day); g >= 0 {
				count[g]++
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}

	// Turn the counts into each drive's first row per group, in
	// inventory order, and size the groups' input columns.
	buf.totals = grow(buf.totals, ng)
	clear(buf.totals)
	for d := 0; d < n; d++ {
		for g := 0; g < ng; g++ {
			c := buf.offsets[d*ng+g]
			buf.offsets[d*ng+g] = buf.totals[g]
			buf.totals[g] += c
		}
	}
	buf.slabs = grow(buf.slabs, ng)
	buf.cols = grow(buf.cols, ng)
	assembled := 0
	for g := 0; g < ng; g++ {
		rows, width := buf.totals[g], s.rowWidth(g)
		buf.slabs[g] = grow(buf.slabs[g], rows*width)
		buf.cols[g] = grow(buf.cols[g], width)
		for c := range buf.cols[g] {
			buf.cols[g][c] = buf.slabs[g][c*rows : (c+1)*rows : (c+1)*rows]
		}
		assembled += rows
	}

	// Assemble every kept day's row into its group's columns.
	err = s.forChunks(n, buf, func(w, d int) error {
		pw := &buf.workers[w]
		view := buf.views[d*nr : (d+1)*nr]
		last := buf.lastDay[d]
		if lo > last {
			return nil
		}
		// A robust pass assembles from sanitized columns: MWI_N as the
		// read step cleaned it, the rest cleaned here.
		cols := view
		if s.san != nil {
			cols = pw.cols
			cols[0] = buf.wear[d]
			for r := 1; r < nr; r++ {
				cols[r] = nil
				if view[r] != nil {
					pw.clean[r] = grow(pw.clean[r], len(view[r]))
					s.san.Clean(pw.clean[r], view[r])
					cols[r] = pw.clean[r]
				}
			}
		}
		wear := s.wearOf(buf, d)
		for g := range pw.days {
			pw.days[g] = pw.days[g][:0]
		}
		for day := lo; day <= min(hi, last); day++ {
			if g := s.route(buf, d, wear, day); g >= 0 {
				pw.days[g] = append(pw.days[g], day)
			}
		}
		for g, days := range pw.days {
			if len(days) == 0 {
				continue
			}
			feat := pw.feat[:len(s.cols[g])]
			for i, r := range s.cols[g] {
				if feat[i] = cols[r]; feat[i] == nil {
					return fmt.Errorf("drive %d has no %v column", refs[d].ID, s.reads[r])
				}
			}
			first := buf.offsets[d*ng+g]
			if err := s.fillRows(g, feat, days, buf.cols[g], first, &pw.rs); err != nil {
				return fmt.Errorf("drive %d: %w", refs[d].ID, err)
			}
			if s.masks {
				fill := s.GroupInputWidth(g)
				for i, r := range s.cols[g] {
					dst := buf.cols[g][fill+i][first : first+len(days)]
					for t, day := range days {
						dst[t] = 0
						if s.san.Missing(view[r][day]) {
							dst[t] = 1
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return assembled, nil
}

// route returns the group drive d's day goes to in the current pass:
// the group PickGroup routes its wear index to, or -1 when no group
// admits it or the pass's keep rule drops the day.
func (s *Scorer) route(buf *ScoreBuf, d int, wear []float64, day int) int {
	g := s.PickGroup(mwiOn(wear, day))
	if g < 0 || buf.keep == nil || buf.keep(buf.refs[d], day) {
		return g
	}
	return -1
}

// eachDay feeds drive d's rows of the last pass to fn in ascending day
// order, each with its group, its row in the group's columns, and its
// routing wear index.
func (s *Scorer) eachDay(buf *ScoreBuf, d int, fn func(day, g, r int, mwi float64)) {
	ng := len(s.groups)
	wear := s.wearOf(buf, d)
	buf.next = grow(buf.next, ng)
	next := buf.next
	copy(next, buf.offsets[d*ng:(d+1)*ng])
	for day := buf.lo; day <= min(buf.hi, buf.lastDay[d]); day++ {
		g := s.route(buf, d, wear, day)
		if g < 0 {
			continue
		}
		fn(day, g, next[g], mwiOn(wear, day))
		next[g]++
	}
}

// outcomes folds each drive's days of the last pass, ascending, into
// its outcome under the scorer's thresholds, one per drive that had a
// scored day, sorted by drive ID. The outcomes alias buf.
func (s *Scorer) outcomes(buf *ScoreBuf) []DriveOutcome {
	out := buf.outcomes[:0]
	for d, ref := range buf.refs {
		fold, scored := newAlarmFold(), false
		s.eachDay(buf, d, func(day, g, r int, mwi float64) {
			fold.add(day, buf.probs[g][r], mwi, s.thresholds[g])
			scored = true
		})
		if scored {
			out = append(out, fold.outcome(ref.ID, ref.FailDay, buf.hi))
		}
	}
	byID := func(a, b DriveOutcome) int { return cmp.Compare(a.Pred.DriveID, b.Pred.DriveID) }
	if !slices.IsSortedFunc(out, byID) {
		slices.SortFunc(out, byID)
	}
	buf.outcomes = out
	return out
}

// calibration folds the last pass into threshold calibration's input:
// one calibDrive per drive that had a scored day, in inventory order.
func (s *Scorer) calibration(buf *ScoreBuf) []calibDrive {
	ng := len(s.groups)
	maxes := make([]float64, len(buf.refs)*ng)
	out := make([]calibDrive, 0, len(buf.refs))
	for d, ref := range buf.refs {
		cd := calibDrive{failDay: ref.FailDay, first: -1, groupMax: maxes[d*ng : (d+1)*ng : (d+1)*ng]}
		for g := range cd.groupMax {
			cd.groupMax[g] = math.NaN()
		}
		s.eachDay(buf, d, func(day, g, r int, _ float64) {
			p := buf.probs[g][r]
			if cd.first < 0 {
				cd.first = day
			}
			if math.IsNaN(cd.groupMax[g]) {
				cd.groupMax[g] = 0
			}
			if p > cd.groupMax[g] {
				cd.groupMax[g] = p
			}
		})
		if cd.first >= 0 {
			out = append(out, cd)
		}
	}
	return out
}

// frames builds each group's training frame from the last pass: the
// group's assembled columns, which the frame takes over from buf, each
// row's label, and each row's drive, day and routing wear index. A
// group without rows gets a nil frame.
func (s *Scorer) frames(buf *ScoreBuf) ([]*frame.Frame, error) {
	ng := len(s.groups)
	labels := make([][]int, ng)
	meta := make([][]frame.Meta, ng)
	for g := range labels {
		labels[g] = make([]int, buf.totals[g])
		meta[g] = make([]frame.Meta, buf.totals[g])
	}
	for d, ref := range buf.refs {
		s.eachDay(buf, d, func(day, g, r int, mwi float64) {
			labels[g][r] = ref.Label(day)
			meta[g][r] = frame.Meta{DriveID: ref.ID, Day: day, MWI: mwi}
		})
	}
	out := make([]*frame.Frame, ng)
	for g := range out {
		if buf.totals[g] == 0 {
			continue
		}
		fr, err := frame.New(s.rowNames(g), buf.cols[g], labels[g], meta[g])
		if err != nil {
			return nil, err
		}
		out[g] = fr
		buf.slabs[g], buf.cols[g] = nil, nil
	}
	return out, nil
}

// rowNames names group g's row cells in a pass: the features, each
// feature's generated statistics, then the ".miss" cells.
func (s *Scorer) rowNames(g int) []string {
	feats := s.groups[g].feats
	names := make([]string, 0, s.rowWidth(g))
	for _, ft := range feats {
		names = append(names, ft.String())
	}
	for _, ft := range feats {
		names = append(names, featgen.Names(ft.String(), s.Windows())...)
	}
	if s.masks {
		for _, ft := range feats {
			names = append(names, ft.String()+".miss")
		}
	}
	return names
}

// forChunks runs fn(worker, drive) for every drive in [0, n), spread
// over the scorer's Workers in chunks of passChunk drives, and returns
// the error of the first failing drive in inventory order. It also
// sizes buf's per-worker scratch.
func (s *Scorer) forChunks(n int, buf *ScoreBuf, fn func(w, d int) error) error {
	chunks := (n + passChunk - 1) / passChunk
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, chunks))
	buf.workers = grow(buf.workers, workers)
	for w := range buf.workers {
		pw := &buf.workers[w]
		pw.feat = grow(pw.feat, len(s.reads))
		if len(pw.days) < len(s.groups) {
			pw.days = append(pw.days, make([][]int, len(s.groups)-len(pw.days))...)
		}
		pw.days = pw.days[:len(s.groups)]
		if s.san != nil {
			pw.cols = grow(pw.cols, len(s.reads))
			if len(pw.clean) < len(s.reads) {
				pw.clean = append(pw.clean, make([][]float64, len(s.reads)-len(pw.clean))...)
			}
		}
	}
	buf.errs = grow(buf.errs, chunks)
	clear(buf.errs)
	run := func(w, c int) {
		for d := c * passChunk; d < min(n, (c+1)*passChunk); d++ {
			if err := fn(w, d); err != nil {
				buf.errs[c] = err
				return
			}
		}
	}
	if workers == 1 {
		for c := 0; c < chunks; c++ {
			run(0, c)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for c := int(next.Add(1)) - 1; c < chunks; c = int(next.Add(1)) - 1 {
					run(w, c)
				}
			}(w)
		}
		wg.Wait()
	}
	for _, err := range buf.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// grow returns s resized to n, reusing its storage when it is large
// enough. The contents are unspecified; callers overwrite or clear.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// RowScratch is FillRow's reusable working state. The zero value is
// ready to use; a RowScratch must not be used concurrently.
type RowScratch struct {
	cells   [][]float64 // FillRow: one-cell views of the row
	days    []int       // FillRow: the one day
	gen     [][]float64
	rolling []stats.RollingStats
}

// FillRow writes group g's model-input row for one day into row, which
// must have GroupInputWidth(g) entries: each selected feature's value
// on the day, then each feature's generated window statistics in
// featgen order. cols holds the group's feature columns in
// GroupFeatures order, each covering at least days [0, day]. It writes
// the cells the engine's one pass writes for the rows a phase trains
// on and scores windows with, so with MaxWindow days of history before
// day online scores match offline ones exactly.
// Once sc has grown, FillRow allocates nothing.
func (s *Scorer) FillRow(g int, cols [][]float64, day int, row []float64, sc *RowScratch) error {
	if g < 0 || g >= len(s.groups) {
		return fmt.Errorf("pipeline: group %d out of range [0, %d)", g, len(s.groups))
	}
	feats := s.groups[g].feats
	k, nGen := len(feats), featgen.NumGenerated(s.Windows())
	if len(cols) != k || len(row) != k+k*nGen {
		return fmt.Errorf("pipeline: group %d row needs %d feature columns and %d cells, got %d and %d",
			g, k, k+k*nGen, len(cols), len(row))
	}
	for i, col := range cols {
		if day < 0 || day >= len(col) {
			return fmt.Errorf("pipeline: day %d outside %v's %d days", day, feats[i], len(col))
		}
	}
	sc.cells = grow(sc.cells, len(row))
	for c := range row {
		sc.cells[c] = row[c : c+1]
	}
	sc.days = append(sc.days[:0], day)
	return s.fillRows(g, cols, sc.days, sc.cells, 0, sc)
}

// fillRows writes group g's model-input cells for each of days
// (ascending, each inside every column of cols) into rows r, r+1, ...
// of dst: cell c of days[t] goes to dst[c][r+t]. The cells are each
// feature's value on the day, then each feature's generated window
// statistics in featgen order; cols holds the group's feature columns
// in GroupFeatures order. Every run of consecutive days is generated
// in one call, straight into its rows.
func (s *Scorer) fillRows(g int, cols [][]float64, days []int, dst [][]float64, r int, sc *RowScratch) error {
	windows := s.Windows()
	k, nGen := len(cols), featgen.NumGenerated(windows)
	sc.gen = grow(sc.gen, nGen)
	for i, col := range cols {
		orig := dst[i][r : r+len(days)]
		for t, day := range days {
			orig[t] = col[day]
		}
		for t := 0; t < len(days); {
			e := t + 1
			for e < len(days) && days[e] == days[e-1]+1 {
				e++
			}
			for j := range sc.gen {
				sc.gen[j] = dst[k+i*nGen+j][r+t : r+e]
			}
			var err error
			if sc.rolling, err = featgen.GenerateRangeInto(sc.gen, col, windows, days[t], days[e-1], sc.rolling); err != nil {
				return fmt.Errorf("pipeline: expand %v: %w", s.groups[g].feats[i], err)
			}
			t = e
		}
	}
	return nil
}

// NumGroups returns the number of trained wear groups.
func (s *Scorer) NumGroups() int { return len(s.groups) }

// GroupFeatures returns a copy of group g's selected original features
// in model-input order. The model's input columns are these features
// followed by each feature's generated window statistics (featgen
// order): [f0..fk, f0.stats(w0)..f0.stats(wn), f1.stats(w0)..].
func (s *Scorer) GroupFeatures(g int) []smart.Feature {
	return append([]smart.Feature(nil), s.groups[g].feats...)
}

// GroupMWIBounds returns group g's wear filter (0 = unbounded on that
// side), as PickGroup applies it: a day belongs to the group when
// (below == 0 or mwi < below) and (atLeast == 0 or mwi >= atLeast). A
// NaN wear index fails every >= comparison, so it lands in the
// low-wear group only.
func (s *Scorer) GroupMWIBounds(g int) (below, atLeast float64) {
	return s.groups[g].mwiBelow, s.groups[g].mwiAtLeast
}

// GroupThreshold returns group g's calibrated alarm threshold.
func (s *Scorer) GroupThreshold(g int) float64 { return s.thresholds[g] }

// PickGroup returns the index of the first wear group whose bounds
// admit a day with the given wear index, or -1 when none does (NaN
// behavior as documented on GroupMWIBounds). The engine's pass routes
// every day it trains on or scores through it.
func (s *Scorer) PickGroup(mwi float64) int {
	for g := range s.groups {
		gr := &s.groups[g]
		if gr.mwiBelow > 0 && mwi >= gr.mwiBelow {
			continue
		}
		if gr.mwiAtLeast > 0 && !(mwi >= gr.mwiAtLeast) {
			continue
		}
		return g
	}
	return -1
}

// GroupInputWidth returns the number of model-input columns group g
// expects: the selected features plus their generated window
// statistics.
func (s *Scorer) GroupInputWidth(g int) int {
	return inputWidth(len(s.groups[g].feats), s.cfg.Windows)
}

// rowWidth is group g's model-input width in a pass: the FillRow
// cells, then one ".miss" cell per feature when robust scoring masks
// missingness.
func (s *Scorer) rowWidth(g int) int {
	w := s.GroupInputWidth(g)
	if s.masks {
		w += len(s.groups[g].feats)
	}
	return w
}

// inputWidth is the model-input column count of n selected features:
// the features plus their generated window statistics (nil windows =
// the dataset defaults).
func inputWidth(n int, windows []int) int {
	if len(windows) == 0 {
		windows = featgen.DefaultWindows
	}
	return n + n*featgen.NumGenerated(windows)
}

// ScoreBatch scores a pre-assembled batch through group g's trained
// model: cols must hold GroupInputWidth(g) equal-length model-input
// columns, and out must have that common length. Probabilities are
// row-local — batch composition does not affect them — so scoring a
// row alone or inside any batch gives bit-identical probabilities.
func (s *Scorer) ScoreBatch(g int, cols [][]float64, out []float64) error {
	if g < 0 || g >= len(s.groups) {
		return fmt.Errorf("pipeline: group %d out of range [0, %d)", g, len(s.groups))
	}
	if want := s.GroupInputWidth(g); len(cols) != want {
		return fmt.Errorf("pipeline: group %d expects %d input columns, got %d", g, want, len(cols))
	}
	for i := range cols {
		if len(cols[i]) != len(out) {
			return fmt.Errorf("pipeline: column %d has %d rows, want %d", i, len(cols[i]), len(out))
		}
	}
	return s.groups[g].model.PredictProbaBatch(cols, out)
}

// Windows returns the feature-generation windows scoring must use,
// with the dataset defaults applied when the snapshot recorded none.
func (s *Scorer) Windows() []int {
	if len(s.cfg.Windows) > 0 {
		return s.cfg.Windows
	}
	return featgen.DefaultWindows
}

// MaxWindow returns the largest feature-generation window — the
// series history a caller must supply before the scored day for
// generated statistics to match the engine's bit for bit.
func (s *Scorer) MaxWindow() int {
	max := 0
	for _, w := range s.Windows() {
		if w > max {
			max = w
		}
	}
	return max
}

// MWIFeature is the normalized media-wearout-indicator column the
// engine reads the routing wear index from.
var MWIFeature = smart.Feature{Attr: smart.MWI, Kind: smart.Normalized}
