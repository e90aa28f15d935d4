package engine

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/featgen"
	"repro/internal/smart"
	"repro/internal/stats"
)

// This file is the engine's one window scorer and the Scorer surface
// the serving daemon builds on: the one-pass scoring of a window
// (ScoreInto, and the Calibrate and Score stages of a phase), the row
// assembler it shares with the daemon (FillRow), and read-only
// accessors for the group structure, so a server can route a drive to
// its wear group, assemble that group's model-input row, and push
// single rows or batches straight through the group's compiled model.

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
	feat  [][]float64 // the routed group's feature columns
	cols  [][]float64 // robust passes: the drive's sanitized columns, by read
	clean [][]float64 // robust passes: cols' backing, by read
	row   []float64
	next  []int // per group: the next row to write for the current drive
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
	Columns(ref dataset.DriveRef, feats []smart.Feature, dst [][]float64) (int, error)
}

// mwiOn is the routing wear index of a day: the MWI_N reading, or 0
// for a drive without the column (as frame extraction defaults it).
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

// pass scores every routed day of [lo, hi] into buf and returns the
// number of rows scored; the outcomes and calibration folds read them.
//
// It reads each drive's needed columns once (store snapshots hand them
// out without building a series map) — sanitized once per drive when
// the config is robust, routing and reported wear included — writes
// every routed day's FillRow row, then its ".miss" cells when masks
// are on, straight into its group's input columns, and makes one
// kernel call per group. Rolling statistics are per day and the
// kernel is row-local, so the scores do not depend on Workers.
func (s *Scorer) pass(src dataset.Source, lo, hi int, buf *ScoreBuf) (int, error) {
	refs := src.DrivesOf(s.model)
	n, nr, ng := len(refs), len(s.reads), len(s.groups)
	buf.refs, buf.lo, buf.hi = refs, lo, hi
	buf.views = grow(buf.views, n*nr)
	buf.lastDay = grow(buf.lastDay, n)
	buf.offsets = grow(buf.offsets, n*ng)
	if s.san != nil {
		buf.wear = grow(buf.wear, n)
	}
	cr, _ := src.(columnReader)

	// Read every drive once and count its routed days per group.
	err := s.forChunks(n, buf, func(_, d int) error {
		view := buf.views[d*nr : (d+1)*nr]
		var last int
		var err error
		if cr != nil {
			last, err = cr.Columns(refs[d], s.reads, view)
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
			if g := s.PickGroup(mwiOn(wear, day)); g >= 0 {
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
	buf.probs = grow(buf.probs, ng)
	scored := 0
	for g := 0; g < ng; g++ {
		rows, width := buf.totals[g], s.rowWidth(g)
		buf.slabs[g] = grow(buf.slabs[g], rows*width)
		buf.cols[g] = grow(buf.cols[g], width)
		for c := range buf.cols[g] {
			buf.cols[g][c] = buf.slabs[g][c*rows : (c+1)*rows : (c+1)*rows]
		}
		buf.probs[g] = grow(buf.probs[g], rows)
		scored += rows
	}

	// Assemble every routed day's row into its group's columns.
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
		copy(pw.next, buf.offsets[d*ng:(d+1)*ng])
		for day := lo; day <= min(hi, last); day++ {
			g := s.PickGroup(mwiOn(wear, day))
			if g < 0 {
				continue
			}
			feat := pw.feat[:len(s.cols[g])]
			for i, r := range s.cols[g] {
				if feat[i] = cols[r]; feat[i] == nil {
					return fmt.Errorf("drive %d has no %v column", refs[d].ID, s.reads[r])
				}
			}
			row := pw.row[:s.rowWidth(g)]
			fill := s.GroupInputWidth(g)
			if err := s.FillRow(g, feat, day, row[:fill], &pw.rs); err != nil {
				return fmt.Errorf("drive %d: %w", refs[d].ID, err)
			}
			if s.masks {
				for i, r := range s.cols[g] {
					row[fill+i] = 0
					if s.san.Missing(view[r][day]) {
						row[fill+i] = 1
					}
				}
			}
			r := pw.next[g]
			pw.next[g]++
			for c, v := range row {
				buf.cols[g][c][r] = v
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for g := 0; g < ng; g++ {
		if buf.totals[g] == 0 {
			continue
		}
		if err := s.groups[g].model.PredictProbaBatch(buf.cols[g], buf.probs[g]); err != nil {
			return 0, err
		}
	}
	return scored, nil
}

// eachDay feeds drive d's scored days of the last pass to fn in
// ascending order, each with its group, probability and routing wear
// index.
func (s *Scorer) eachDay(buf *ScoreBuf, d int, fn func(day, g int, p, mwi float64)) {
	ng := len(s.groups)
	wear := s.wearOf(buf, d)
	buf.next = grow(buf.next, ng)
	next := buf.next
	copy(next, buf.offsets[d*ng:(d+1)*ng])
	for day := buf.lo; day <= min(buf.hi, buf.lastDay[d]); day++ {
		mwi := mwiOn(wear, day)
		g := s.PickGroup(mwi)
		if g < 0 {
			continue
		}
		fn(day, g, buf.probs[g][next[g]], mwi)
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
		s.eachDay(buf, d, func(day, g int, p, mwi float64) {
			fold.add(day, p, mwi, s.thresholds[g])
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
		s.eachDay(buf, d, func(day, g int, p, _ float64) {
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
	width := 0
	for g := range s.groups {
		width = max(width, s.rowWidth(g))
	}
	buf.workers = grow(buf.workers, workers)
	for w := range buf.workers {
		pw := &buf.workers[w]
		pw.feat = grow(pw.feat, len(s.reads))
		pw.next = grow(pw.next, len(s.groups))
		pw.row = grow(pw.row, width)
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
	gen     [][]float64
	rolling []stats.RollingStats
}

// FillRow writes group g's model-input row for one day into row, which
// must have GroupInputWidth(g) entries: each selected feature's value
// on the day, then each feature's generated window statistics in
// featgen order. cols holds the group's feature columns in
// GroupFeatures order, each covering at least days [0, day]. With
// MaxWindow days of history before day the row is bit-identical to the
// rows the engine trains on and scores windows with, so online scores
// match offline ones exactly.
// Once sc has grown, FillRow allocates nothing.
func (s *Scorer) FillRow(g int, cols [][]float64, day int, row []float64, sc *RowScratch) error {
	if g < 0 || g >= len(s.groups) {
		return fmt.Errorf("pipeline: group %d out of range [0, %d)", g, len(s.groups))
	}
	feats, windows := s.groups[g].feats, s.Windows()
	k, nGen := len(feats), featgen.NumGenerated(windows)
	if len(cols) != k || len(row) != k+k*nGen {
		return fmt.Errorf("pipeline: group %d row needs %d feature columns and %d cells, got %d and %d",
			g, k, k+k*nGen, len(cols), len(row))
	}
	for i, col := range cols {
		if day < 0 || day >= len(col) {
			return fmt.Errorf("pipeline: day %d outside %v's %d days", day, feats[i], len(col))
		}
		row[i] = col[day]
	}
	sc.gen = grow(sc.gen, nGen)
	for i, col := range cols {
		// Generate straight into the row: gen[j] is cell j of feature
		// i's statistics.
		base := k + i*nGen
		for j := range sc.gen {
			sc.gen[j] = row[base+j : base+j+1]
		}
		var err error
		if sc.rolling, err = featgen.GenerateRangeInto(sc.gen, col, windows, day, day, sc.rolling); err != nil {
			return fmt.Errorf("pipeline: expand %v: %w", feats[i], err)
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
// side), with the same semantics the engine applies when routing
// drive-days: a day belongs to the group when (below == 0 or
// mwi < below) and (atLeast == 0 or mwi >= atLeast). A NaN wear index
// fails every >= comparison, so it lands in the low-wear group only.
func (s *Scorer) GroupMWIBounds(g int) (below, atLeast float64) {
	return s.groups[g].mwiBelow, s.groups[g].mwiAtLeast
}

// GroupThreshold returns group g's calibrated alarm threshold.
func (s *Scorer) GroupThreshold(g int) float64 { return s.thresholds[g] }

// PickGroup returns the index of the wear group that scores a day with
// the given wear index, or -1 when no group admits it. The comparison
// logic mirrors the wear filter of the engine's training frames bit
// for bit, including the NaN behavior documented on GroupMWIBounds.
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
