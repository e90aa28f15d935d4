// Package dataset turns raw SMART logs into learning sets: it labels
// drive-days with the paper's 30-day look-ahead rule, materializes
// column-major frames of a model's original features for feature
// selection, and reads/writes the CSV layout of the released Alibaba
// ssd_smart_logs dataset so real logs can replace the simulator. (The
// model-input rows that training and scoring use — original features
// plus their generated window statistics — are assembled by
// internal/engine.)
//
// The package is source-agnostic: anything implementing Source — the
// simulator adapter FleetSource or CSV-parsed Logs — can feed the same
// pipeline.
package dataset

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/frame"
	"repro/internal/simulate"
	"repro/internal/smart"
)

// Errors returned by dataset operations.
var (
	// ErrBadOpts indicates invalid frame options.
	ErrBadOpts = errors.New("dataset: bad options")
	// ErrNoSamples indicates a frame request that matched no drive-days.
	ErrNoSamples = errors.New("dataset: no samples in range")
)

// PredictionWindow is the look-ahead labeling horizon in days: a
// drive-day is positive when the drive fails within this many days
// (Section II-B of the paper).
const PredictionWindow = simulate.PredictionWindow

// mwiFeature is the normalized media-wearout indicator a frame's
// sample metadata reads.
var mwiFeature = smart.Feature{Attr: smart.MWI, Kind: smart.Normalized}

// DriveRef identifies one drive in a Source.
type DriveRef struct {
	// ID is unique within the source.
	ID int
	// Model is the drive model.
	Model smart.ModelID
	// FailDay is the failure day, or -1 for healthy drives.
	FailDay int
}

// Failed reports whether the drive fails within the dataset.
func (r DriveRef) Failed() bool { return r.FailDay >= 0 }

// Label returns 1 when the drive fails within PredictionWindow days of
// the given day (inclusive), 0 otherwise.
func (r DriveRef) Label(day int) int {
	if r.Failed() && day >= r.FailDay-PredictionWindow && day <= r.FailDay {
		return 1
	}
	return 0
}

// Source abstracts a SMART dataset: per-model drive inventories and
// per-drive daily series.
type Source interface {
	// Days returns the dataset span in days.
	Days() int
	// DrivesOf returns the drives of one model.
	DrivesOf(m smart.ModelID) []DriveRef
	// Series returns the drive's feature columns and its last observed
	// day (inclusive). Columns must all have length lastDay+1.
	Series(ref DriveRef) (cols map[smart.Feature][]float64, lastDay int, err error)
}

// FleetSource adapts a simulated fleet to Source.
type FleetSource struct {
	// Fleet is the wrapped simulator fleet.
	Fleet *simulate.Fleet
}

var _ Source = FleetSource{}

// Days implements Source.
func (s FleetSource) Days() int { return s.Fleet.Days() }

// DrivesOf implements Source.
func (s FleetSource) DrivesOf(m smart.ModelID) []DriveRef {
	drives := s.Fleet.DrivesOf(m)
	out := make([]DriveRef, len(drives))
	for i, d := range drives {
		out[i] = DriveRef{ID: d.ID, Model: d.Model, FailDay: d.FailDay}
	}
	return out
}

// Series implements Source.
func (s FleetSource) Series(ref DriveRef) (map[smart.Feature][]float64, int, error) {
	d, err := s.Fleet.Drive(ref.ID)
	if err != nil {
		return nil, 0, fmt.Errorf("dataset: %w", err)
	}
	ser := s.Fleet.Series(d)
	cols := make(map[smart.Feature][]float64)
	for _, ft := range ser.Features() {
		cols[ft] = ser.Col(ft)
	}
	return cols, ser.LastDay, nil
}

// FrameOpts selects which drive-days of a model are materialized into a
// selection frame.
type FrameOpts struct {
	// Model is the drive model to extract.
	Model smart.ModelID
	// DayLo and DayHi bound the sample days, both inclusive.
	DayLo, DayHi int
	// NegEvery keeps every k-th negative drive-day per drive (all
	// positive days are always kept); 0 means 7. Use 1 to keep every
	// day.
	NegEvery int
	// Workers bounds per-drive extraction parallelism; 0 means
	// GOMAXPROCS. The Source's Series method must be safe for
	// concurrent calls when more than one worker runs (every Source in
	// this repository is). Results are identical for any worker count:
	// drives are always concatenated in inventory order.
	Workers int
	// Sanitize, when non-nil, cleans each drive's series before
	// labeling and extraction: sentinel scrubbing and bounded
	// forward-fill imputation (MissMask does not apply: a selection
	// frame carries feature columns only). Nil preserves the exact
	// legacy path, bit for bit.
	Sanitize *SanitizeOpts
}

func (o FrameOpts) normalize(days int) (FrameOpts, error) {
	if !o.Model.Valid() {
		return o, fmt.Errorf("%w: invalid model %v", ErrBadOpts, o.Model)
	}
	if o.DayLo < 0 || o.DayHi >= days || o.DayLo > o.DayHi {
		return o, fmt.Errorf("%w: day range [%d, %d] outside dataset of %d days", ErrBadOpts, o.DayLo, o.DayHi, days)
	}
	if o.NegEvery <= 0 {
		o.NegEvery = 7
	}
	return o, nil
}

// Frame materializes a model's selection frame per the options: one
// column per original feature the model reports, in spec order, and
// one row per kept drive-day. Sample metadata records the drive, day,
// and that day's MWI_N.
func Frame(src Source, opts FrameOpts) (*frame.Frame, error) {
	opts, err := opts.normalize(src.Days())
	if err != nil {
		return nil, err
	}
	feats := smart.MustSpec(opts.Model).Features()
	names := make([]string, len(feats))
	for i, ft := range feats {
		names[i] = ft.String()
	}

	drives := src.DrivesOf(opts.Model)
	chunks := make([]*driveChunk, len(drives))
	errs := make([]error, len(drives))

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(drives) {
		workers = len(drives)
	}
	if workers <= 1 {
		for d, ref := range drives {
			chunks[d], errs[d] = extractDrive(src, ref, feats, opts)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					d := int(next.Add(1)) - 1
					if d >= len(drives) {
						return
					}
					chunks[d], errs[d] = extractDrive(src, drives[d], feats, opts)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Concatenate per-drive chunks in inventory order, so the frame is
	// identical no matter how many workers extracted it.
	total := 0
	for _, ch := range chunks {
		if ch != nil {
			total += len(ch.labels)
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("%w: model %v days [%d, %d]", ErrNoSamples, opts.Model, opts.DayLo, opts.DayHi)
	}
	// One slab for every concatenated column: the chunk lengths are
	// known, so per-column growth reallocation is pure waste.
	cols := make([][]float64, len(names))
	slab := make([]float64, len(names)*total)
	for i := range cols {
		cols[i] = slab[i*total : i*total : (i+1)*total]
	}
	labels := make([]int, 0, total)
	meta := make([]frame.Meta, 0, total)
	for _, ch := range chunks {
		if ch == nil {
			continue
		}
		for c := range cols {
			cols[c] = append(cols[c], ch.cols[c]...)
		}
		labels = append(labels, ch.labels...)
		meta = append(meta, ch.meta...)
		putSlab(ch.slab)
	}
	return frame.New(names, cols, labels, meta)
}

// driveChunk is one drive's worth of frame rows. slab backs cols and
// returns to slabPool once the chunk is concatenated into the frame.
type driveChunk struct {
	cols   [][]float64
	labels []int
	meta   []frame.Meta
	slab   []float64
}

// slabPool recycles the transient float64 slabs of frame extraction:
// each drive's column chunk dies as soon as the frame is concatenated,
// and a frame extracts thousands of drives, so without reuse these
// short-lived slabs dominate its allocation volume. Every pooled slab
// is fully overwritten before use.
var slabPool sync.Pool

func getSlab(n int) []float64 {
	if v := slabPool.Get(); v != nil {
		if s := v.([]float64); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float64, n)
}

func putSlab(s []float64) {
	if s != nil {
		slabPool.Put(s)
	}
}

// extractDrive materializes one drive's kept sample days of feats. It
// returns nil (no error) when no day of the drive is in range.
func extractDrive(src Source, ref DriveRef, feats []smart.Feature, opts FrameOpts) (*driveChunk, error) {
	series, lastDay, err := src.Series(ref)
	if err != nil {
		return nil, err
	}
	hi := min(opts.DayHi, lastDay)
	if opts.DayLo > hi {
		return nil, nil
	}
	if opts.Sanitize != nil {
		series = sanitizeSeries(series, feats, opts.Sanitize)
	}

	// Pass 1: find the kept sample days. Knowing the row count up front
	// lets pass 2 fill one exact-size column-major slab instead of
	// growing every column by per-day appends.
	var days []int
	for day := opts.DayLo; day <= hi; day++ {
		if ref.Label(day) == 1 || (day-ref.ID)%opts.NegEvery == 0 {
			days = append(days, day)
		}
	}
	if len(days) == 0 {
		return nil, nil
	}

	rows := len(days)
	slab := getSlab(len(feats) * rows)
	ch := &driveChunk{
		cols:   make([][]float64, len(feats)),
		labels: make([]int, rows),
		meta:   make([]frame.Meta, rows),
		slab:   slab,
	}
	// Pass 2: column-major fill.
	for c, ft := range feats {
		col, ok := series[ft]
		if !ok {
			return nil, fmt.Errorf("dataset: model %v missing feature %v", opts.Model, ft)
		}
		dst := slab[c*rows : (c+1)*rows : (c+1)*rows]
		for k, day := range days {
			dst[k] = col[day]
		}
		ch.cols[c] = dst
	}
	mwiCol := series[mwiFeature]
	for k, day := range days {
		mwi := 0.0
		if mwiCol != nil {
			mwi = mwiCol[day]
		}
		ch.labels[k] = ref.Label(day)
		ch.meta[k] = frame.Meta{DriveID: ref.ID, Day: day, MWI: mwi}
	}
	return ch, nil
}
