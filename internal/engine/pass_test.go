package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/featgen"
	"repro/internal/flat"
	"repro/internal/forest"
	"repro/internal/frame"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/store"
)

// The engine's one row assembler (Scorer.assemble, the scoring pass
// and its folds, and the training frames built on it) is checked here
// against a frame-path reference: refFrame, the per-group expanding
// extraction that built training and scoring frames before the pass
// did. Scoring is checked against one every-day reference frame per
// wear group folded per drive, training against the reference's
// per-group frames and degenerate fallback. The fixture is a small
// simulated MC1 fleet with injected missing readings, sentinels and
// long gaps, a two-group snapshot whose wear bounds leave a gap no
// group admits, and the same groups trained on sanitized, masked
// frames for robust scoring.

// refOpts selects the drive-days and columns of a reference frame.
type refOpts struct {
	lo, hi   int // sample days, inclusive
	negEvery int // keep every positive day and every negEvery-th negative one
	feats    []smart.Feature
	windows  []int // nil means featgen.DefaultWindows
	// below, when > 0, keeps days whose MWI_N is strictly below it;
	// atLeast, when > 0, keeps days whose MWI_N is at least it.
	below, atLeast float64
	san            *dataset.SanitizeOpts // nil: no cleaning, no masks
}

// refFrame is the reference extraction: for each drive in inventory
// order, its series cleaned column by column when san is set, the
// kept days of [lo, min(hi, lastDay)] (positive, or (day−ID) %
// negEvery == 0, within the wear bounds; a NaN wear reading fails
// every >= test, and a drive without MWI_N reads 0), and per kept day
// the features, then every feature's generated statistics over the
// whole range (featgen.GenerateRangeInto from lo), then the ".miss"
// cells of the raw readings when san.MissMask is set. It returns nil
// when no day is kept. It never feeds san.Counter.
func refFrame(src dataset.Source, model smart.ModelID, o refOpts) (*frame.Frame, error) {
	windows := o.windows
	if windows == nil {
		windows = featgen.DefaultWindows
	}
	nGen := featgen.NumGenerated(windows)
	var san *dataset.SanitizeOpts
	if o.san != nil {
		cp := *o.san
		cp.Counter = nil
		san = &cp
	}
	masks := san != nil && san.MissMask
	var names []string
	for _, ft := range o.feats {
		names = append(names, ft.String())
	}
	for _, ft := range o.feats {
		names = append(names, featgen.Names(ft.String(), windows)...)
	}
	if masks {
		for _, ft := range o.feats {
			names = append(names, ft.String()+".miss")
		}
	}
	cols := make([][]float64, len(names))
	var labels []int
	var meta []frame.Meta
	for _, ref := range src.DrivesOf(model) {
		raw, last, err := src.Series(ref)
		if err != nil {
			return nil, err
		}
		hi := min(o.hi, last)
		if o.lo > hi {
			continue
		}
		series := raw
		if san != nil {
			series = make(map[smart.Feature][]float64, len(raw))
			for ft, col := range raw {
				series[ft] = col
			}
			for _, ft := range append([]smart.Feature{MWIFeature}, o.feats...) {
				if col, ok := raw[ft]; ok {
					clean := make([]float64, len(col))
					san.Clean(clean, col)
					series[ft] = clean
				}
			}
		}
		wear := func(day int) float64 {
			if col := series[MWIFeature]; col != nil {
				return col[day]
			}
			return 0
		}
		var days []int
		for day := o.lo; day <= hi; day++ {
			if ref.Label(day) == 0 && (day-ref.ID)%o.negEvery != 0 {
				continue
			}
			if o.below > 0 && wear(day) >= o.below {
				continue
			}
			if o.atLeast > 0 && !(wear(day) >= o.atLeast) {
				continue
			}
			days = append(days, day)
		}
		if len(days) == 0 {
			continue
		}
		gen := make([][]float64, len(o.feats)*nGen)
		for fi, ft := range o.feats {
			col, ok := series[ft]
			if !ok {
				return nil, fmt.Errorf("drive %d has no %v column", ref.ID, ft)
			}
			for j := 0; j < nGen; j++ {
				gen[fi*nGen+j] = make([]float64, hi-o.lo+1)
			}
			if _, err := featgen.GenerateRangeInto(gen[fi*nGen:(fi+1)*nGen], col, windows, o.lo, hi, nil); err != nil {
				return nil, err
			}
		}
		for _, day := range days {
			c := 0
			for _, ft := range o.feats {
				cols[c] = append(cols[c], series[ft][day])
				c++
			}
			for _, g := range gen {
				cols[c] = append(cols[c], g[day-o.lo])
				c++
			}
			if masks {
				for _, ft := range o.feats {
					v := 0.0
					if san.Missing(raw[ft][day]) {
						v = 1
					}
					cols[c] = append(cols[c], v)
					c++
				}
			}
			labels = append(labels, ref.Label(day))
			meta = append(meta, frame.Meta{DriveID: ref.ID, Day: day, MWI: wear(day)})
		}
	}
	if len(labels) == 0 {
		return nil, nil
	}
	return frame.New(names, cols, labels, meta)
}

// groupRef is refFrame's options for group g's frame over [lo, hi].
func groupRef(g group, lo, hi, negEvery int, windows []int, san *dataset.SanitizeOpts) refOpts {
	return refOpts{lo: lo, hi: hi, negEvery: negEvery, feats: g.feats, windows: windows,
		below: g.mwiBelow, atLeast: g.mwiAtLeast, san: san}
}

// refTrainFrames is the reference of trainFrames: one refFrame per
// group, every positive day and every negEvery-th negative day
// (cfg.NegEvery/5, at least 1, with more than one group), and for a
// group left without positives the whole population with its
// features at cfg.NegEvery.
func refTrainFrames(src dataset.Source, model smart.ModelID, groups []group, lo, hi int, cfg Config) ([]*frame.Frame, error) {
	negEvery := cfg.NegEvery
	if len(groups) > 1 {
		negEvery = max(1, cfg.NegEvery/5)
	}
	san := cfg.sanitizeOpts(true)
	out := make([]*frame.Frame, len(groups))
	for gi, g := range groups {
		fr, err := refFrame(src, model, groupRef(g, lo, hi, negEvery, cfg.Windows, san))
		if err != nil {
			return nil, err
		}
		if fr == nil || fr.Positives() == 0 {
			if fr, err = refFrame(src, model, groupRef(group{feats: g.feats}, lo, hi, cfg.NegEvery, cfg.Windows, san)); err != nil {
				return nil, err
			}
			if fr == nil || fr.Positives() == 0 {
				return nil, ErrNoTrainingSignal
			}
		}
		out[gi] = fr
	}
	return out, nil
}

// sameFrame fails unless got and want have the same column names,
// cells (by Float64bits), labels and metadata, in the same row order.
func sameFrame(t testing.TB, what string, got, want *frame.Frame) {
	t.Helper()
	if !slices.Equal(got.Names(), want.Names()) {
		t.Fatalf("%s: columns %v, reference %v", what, got.Names(), want.Names())
	}
	if !slices.Equal(got.Labels(), want.Labels()) {
		t.Fatalf("%s: %d labels differ from the reference's %d", what, got.NumRows(), want.NumRows())
	}
	for c := 0; c < want.NumFeatures(); c++ {
		sameBits(t, fmt.Sprintf("%s column %s", what, want.Names()[c]), got.Col(c), want.Col(c))
	}
	for i := 0; i < want.NumRows(); i++ {
		g, w := got.Meta(i), want.Meta(i)
		if g.DriveID != w.DriveID || g.Day != w.Day || math.Float64bits(g.MWI) != math.Float64bits(w.MWI) {
			t.Fatalf("%s row %d: meta %+v, reference %+v", what, i, g, w)
		}
	}
}

// refRow is one drive-day the reference scored.
type refRow struct {
	day, group int
	prob, mwi  float64
}

// refDrive is one drive's reference rows, days ascending.
type refDrive struct {
	ref  dataset.DriveRef
	rows []refRow
}

// frameScore is the frame-path reference of s.pass: it scores every
// drive-day of [lo, hi] with s's groups through refFrame (robust
// configs sanitize each drive's series and append ".miss" columns
// there) and returns the scored days by drive ID with the number of
// rows scored.
func frameScore(src dataset.Source, s *Scorer, lo, hi int) (map[int]*refDrive, int, error) {
	scores, frames, err := frameRows(src, s, lo, hi)
	rows := 0
	for _, cols := range frames {
		if len(cols) > 0 {
			rows += len(cols[0])
		}
	}
	return scores, rows, err
}

// frameRows is frameScore returning, in place of the row count, each
// group's model-input columns (nil for a group without rows).
func frameRows(src dataset.Source, s *Scorer, lo, hi int) (map[int]*refDrive, [][][]float64, error) {
	refs := make(map[int]dataset.DriveRef)
	for _, r := range src.DrivesOf(s.model) {
		refs[r.ID] = r
	}
	out := make(map[int]*refDrive)
	frames := make([][][]float64, len(s.groups))
	for gi, g := range s.groups {
		fr, err := refFrame(src, s.model, groupRef(g, lo, hi, 1, s.cfg.Windows, s.cfg.sanitizeOpts(true)))
		if err != nil {
			return nil, nil, err
		}
		if fr == nil {
			continue
		}
		frames[gi] = frameColumns(fr)
		probs := make([]float64, fr.NumRows())
		if err := g.model.PredictProbaBatch(frames[gi], probs); err != nil {
			return nil, nil, err
		}
		for i, p := range probs {
			m := fr.Meta(i)
			rd, ok := out[m.DriveID]
			if !ok {
				rd = &refDrive{ref: refs[m.DriveID]}
				out[m.DriveID] = rd
			}
			rd.rows = append(rd.rows, refRow{day: m.Day, group: gi, prob: p, mwi: m.MWI})
		}
	}
	for _, rd := range out {
		sort.Slice(rd.rows, func(i, j int) bool { return rd.rows[i].day < rd.rows[j].day })
	}
	return out, frames, nil
}

// frameOutcomes folds the reference's drives into outcomes sorted by
// drive ID, each drive's days ascending through alarmFold.
func frameOutcomes(scores map[int]*refDrive, thresholds []float64, hi int) []DriveOutcome {
	out := make([]DriveOutcome, 0, len(scores))
	for id, rd := range scores {
		fold := newAlarmFold()
		for _, r := range rd.rows {
			fold.add(r.day, r.prob, r.mwi, thresholds[r.group])
		}
		out = append(out, fold.outcome(id, rd.ref.FailDay, hi))
	}
	slices.SortFunc(out, func(a, b DriveOutcome) int { return a.Pred.DriveID - b.Pred.DriveID })
	return out
}

// frameCalibration is the reference's threshold-calibration input: per
// drive, its failure day, first scored day, and each group's highest
// probability (NaN for a group without a day).
func frameCalibration(scores map[int]*refDrive, numGroups int) []calibDrive {
	var out []calibDrive
	for _, rd := range scores {
		cd := calibDrive{failDay: rd.ref.FailDay, first: rd.rows[0].day, groupMax: make([]float64, numGroups)}
		for g := range cd.groupMax {
			best, any := 0.0, false
			for _, r := range rd.rows {
				if r.group == g {
					any = true
					best = max(best, r.prob)
				}
			}
			cd.groupMax[g] = math.NaN()
			if any {
				cd.groupMax[g] = best
			}
		}
		out = append(out, cd)
	}
	return out
}

// sameOutcomes fails unless got and want are equal, float bits
// included.
func sameOutcomes(t testing.TB, what string, got, want []DriveOutcome) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outcomes, frame path %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Pred != w.Pred || math.Float64bits(g.MWI) != math.Float64bits(w.MWI) ||
			math.Float64bits(g.MaxProb) != math.Float64bits(w.MaxProb) {
			t.Fatalf("%s outcome %d: %+v, frame path %+v", what, i, g, w)
		}
	}
}

// sameBits fails unless the two float slices are equal bit for bit.
func sameBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, frame path %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v, frame path %v", what, i, got[i], want[i])
		}
	}
}

// memSource is an in-memory Source over materialized series.
type memSource struct {
	days   int
	refs   []dataset.DriveRef
	series map[int]map[smart.Feature][]float64
	last   map[int]int
}

func (m *memSource) Days() int { return m.days }

func (m *memSource) DrivesOf(model smart.ModelID) []dataset.DriveRef {
	if model != smart.MC1 {
		return nil
	}
	return m.refs
}

func (m *memSource) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	cols, ok := m.series[ref.ID]
	if !ok {
		return nil, 0, fmt.Errorf("no drive %d", ref.ID)
	}
	return cols, m.last[ref.ID], nil
}

// materialize copies every MC1 series of src, then lets each inject
// modify the copies in place.
func materialize(src dataset.Source, inject ...func(ref dataset.DriveRef, cols map[smart.Feature][]float64)) (*memSource, error) {
	m := &memSource{
		days:   src.Days(),
		refs:   src.DrivesOf(smart.MC1),
		series: make(map[int]map[smart.Feature][]float64),
		last:   make(map[int]int),
	}
	for _, ref := range m.refs {
		cols, last, err := src.Series(ref)
		if err != nil {
			return nil, err
		}
		own := make(map[smart.Feature][]float64, len(cols))
		for ft, col := range cols {
			own[ft] = append([]float64(nil), col...)
		}
		for _, fn := range inject {
			fn(ref, own)
		}
		m.series[ref.ID], m.last[ref.ID] = own, last
	}
	return m, nil
}

// injectMissing blanks readings at random: MWI_N on about one
// drive-day in rate (NaN wear routes to the low-wear group), and a
// gap of up to ten days in one other feature of about one drive in
// four.
func injectMissing(seed int64, rate int) func(dataset.DriveRef, map[smart.Feature][]float64) {
	feats := smart.MustSpec(smart.MC1).Features()
	return func(ref dataset.DriveRef, cols map[smart.Feature][]float64) {
		rng := rand.New(rand.NewSource(seed*7919 + int64(ref.ID)))
		mwi := cols[MWIFeature]
		for d := range mwi {
			if rng.Intn(rate) == 0 {
				mwi[d] = math.NaN()
			}
		}
		if rng.Intn(4) == 0 {
			col := cols[feats[rng.Intn(len(feats))]]
			from := rng.Intn(len(col))
			for d := from; d < min(len(col), from+1+rng.Intn(10)); d++ {
				col[d] = math.NaN()
			}
		}
	}
}

// passSentinel is the firmware error code robust scoring scrubs.
const passSentinel = 65535

// passSanitize is the robust fixture's cleaning: passSentinel scrubbed,
// gaps filled for at most four days, and ".miss" mask columns when
// mask is set.
func passSanitize(mask bool) dataset.SanitizeOpts {
	return dataset.SanitizeOpts{MaxGap: 4, Sentinels: []float64{passSentinel}, MissMask: mask}
}

// injectDefects adds what robust scoring cleans: MWI_N and two other
// features read passSentinel on about one drive-day in rate, and about
// one drive in three loses a run of 5 to 24 days of one feature —
// longer than passSanitize's MaxGap, and from day 0 on about one drive
// in nine, so the series starts mid-gap.
func injectDefects(seed int64, rate int) func(dataset.DriveRef, map[smart.Feature][]float64) {
	feats := smart.MustSpec(smart.MC1).Features()
	return func(ref dataset.DriveRef, cols map[smart.Feature][]float64) {
		rng := rand.New(rand.NewSource(seed*104729 + int64(ref.ID)))
		for _, ft := range []smart.Feature{MWIFeature, feats[2], feats[5]} {
			col := cols[ft]
			for d := range col {
				if rng.Intn(rate) == 0 {
					col[d] = passSentinel
				}
			}
		}
		if rng.Intn(3) == 0 {
			col := cols[feats[rng.Intn(len(feats))]]
			from := 0
			if rng.Intn(3) > 0 {
				from = rng.Intn(len(col))
			}
			for d := from; d < min(len(col), from+5+rng.Intn(20)); d++ {
				col[d] = math.NaN()
			}
		}
	}
}

// passFixture is the shared fleet and scorers.
type passFixture struct {
	clean  *memSource // the simulated fleet, no injected gaps
	dirty  *memSource // the same with injectMissing(1, 25)
	robust *memSource // dirty plus injectDefects(1, 40)
	snap   *ModelSnapshot
	// masked and unmasked are the snapshot's groups trained on robust
	// frames over robust, with and without ".miss" columns.
	masked, unmasked []group
}

var (
	passOnce sync.Once
	passFix  passFixture
	passErr  error
)

const passDays = 120

func simulatedMC1(drives int) (dataset.Source, error) {
	f, err := simulate.New(simulate.Config{
		TotalDrives: drives, Days: passDays, Seed: 3, AFRScale: 10,
		Models: []smart.ModelID{smart.MC1},
	})
	if err != nil {
		return nil, err
	}
	return dataset.FleetSource{Fleet: f}, nil
}

func getPassFixture(t testing.TB) *passFixture {
	t.Helper()
	passOnce.Do(func() { passErr = buildPassFixture(&passFix) })
	if passErr != nil {
		t.Fatalf("fixture: %v", passErr)
	}
	return &passFix
}

func buildPassFixture(fx *passFixture) error {
	src, err := simulatedMC1(160)
	if err != nil {
		return err
	}
	if fx.clean, err = materialize(src); err != nil {
		return err
	}
	if fx.dirty, err = materialize(src, injectMissing(1, 25)); err != nil {
		return err
	}
	if fx.robust, err = materialize(fx.dirty, injectDefects(1, 40)); err != nil {
		return err
	}
	groups, err := passGroups(fx.dirty, nil)
	if err != nil {
		return err
	}
	fx.snap = &ModelSnapshot{
		Format: SnapshotFormat, Model: smart.MC1, Selector: "pass-test", TrainedThrough: 79,
		Thresholds: []float64{0.2, 0.3},
	}
	for _, g := range groups {
		payload, err := g.model.MarshalBinary()
		if err != nil {
			return err
		}
		fx.snap.Groups = append(fx.snap.Groups, GroupSnapshot{
			Features: g.names, MWIBelow: g.mwiBelow, MWIAtLeast: g.mwiAtLeast,
			Predictor: predictorForest, FlatData: payload,
		})
	}
	masked, unmasked := passSanitize(true), passSanitize(false)
	if fx.masked, err = passGroups(fx.robust, &masked); err != nil {
		return err
	}
	fx.unmasked, err = passGroups(fx.robust, &unmasked)
	return err
}

// passGroups trains one small forest per wear group on the first 80
// days of src, on frames sanitized by san when it is set. The groups
// read overlapping feature sets, and their bounds (the 40th and 60th
// percentiles of the fleet's wear over the scored days) leave the wear
// band between them to no group.
func passGroups(src dataset.Source, san *dataset.SanitizeOpts) ([]group, error) {
	var wear []float64
	for _, ref := range src.DrivesOf(smart.MC1) {
		cols, last, err := src.Series(ref)
		if err != nil {
			return nil, err
		}
		for d := 80; d <= last; d++ {
			if v := cols[MWIFeature][d]; !math.IsNaN(v) && v != passSentinel {
				wear = append(wear, v)
			}
		}
	}
	sort.Float64s(wear)
	below, atLeast := wear[len(wear)*4/10], wear[len(wear)*6/10]
	if !(below < atLeast) {
		return nil, fmt.Errorf("wear quantiles %v, %v leave no gap", below, atLeast)
	}
	all := smart.MustSpec(smart.MC1).Features()
	groups := []group{
		{feats: append([]smart.Feature{MWIFeature}, all[:4]...), mwiBelow: below},
		{feats: all[2:8], mwiAtLeast: atLeast},
	}
	for gi := range groups {
		g := &groups[gi]
		fr, err := refFrame(src, smart.MC1, refOpts{lo: 0, hi: 79, negEvery: 2, feats: g.feats, san: san})
		if err != nil {
			return nil, err
		}
		if fr == nil || fr.Positives() == 0 {
			return nil, fmt.Errorf("group %d trains without positives", gi)
		}
		fo, err := forest.Fit(frameColumns(fr), fr.Labels(), forest.Config{NumTrees: 4, MaxDepth: 6, Seed: int64(gi + 1)})
		if err != nil {
			return nil, err
		}
		if g.model, err = flat.CompileForest(fo); err != nil {
			return nil, err
		}
		for _, ft := range g.feats {
			g.names = append(g.names, ft.String())
		}
	}
	return groups, nil
}

// robustScorer scores with groups trained on robust frames, cleaning
// series with san and masking when san.MissMask is set.
func robustScorer(groups []group, san dataset.SanitizeOpts, workers int) *Scorer {
	cfg := Config{Workers: workers, Robust: &RobustOpts{Sanitize: san, Report: &RunReport{}}}
	return newScorer(smart.MC1, groups, []float64{0.2, 0.3}, cfg)
}

func frameColumns(fr *frame.Frame) [][]float64 {
	cols := make([][]float64, fr.NumFeatures())
	for i := range cols {
		cols[i] = fr.Col(i)
	}
	return cols
}

// storeOver ingests src into a fresh in-memory store, spilled to disk
// when spillDir is set, and returns a snapshot of its full horizon.
func storeOver(t testing.TB, src dataset.Source, spillDir string) *store.Snapshot {
	t.Helper()
	st := store.Open(src, store.Options{Workers: 1, SpillDir: spillDir})
	t.Cleanup(func() { st.Close() })
	if err := st.Track(smart.MC1); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendThrough(src.Days() - 1); err != nil {
		t.Fatal(err)
	}
	if spillDir != "" {
		if err := st.Spill(); err != nil {
			t.Fatal(err)
		}
	}
	return st.Snapshot()
}

// checkMatchesFramePath scores [lo, hi] with s.ScoreInto and with the
// frame reference and requires identical outcomes, float bits
// included, identical model-input rows in the same order, and an
// identical calibration of the window. It returns the outcomes.
func checkMatchesFramePath(t testing.TB, s *Scorer, src dataset.Source, lo, hi int, buf *ScoreBuf) []DriveOutcome {
	t.Helper()
	what := fmt.Sprintf("[%d, %d]", lo, hi)
	scores, frames, err := frameRows(src, s, lo, hi)
	if err != nil {
		t.Fatalf("%s reference: %v", what, err)
	}
	got, err := s.ScoreInto(src, lo, hi, buf)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	sameOutcomes(t, what, got, frameOutcomes(scores, s.thresholds, hi))

	var cal ScoreBuf
	if _, err := s.pass(src, lo, hi, &cal); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for g, want := range frames {
		if len(want) == 0 {
			if cal.totals[g] != 0 {
				t.Fatalf("%s group %d: pass scored %d rows, frame path none", what, g, cal.totals[g])
			}
			continue
		}
		if len(cal.cols[g]) != len(want) {
			t.Fatalf("%s group %d: %d input columns, frame path %d", what, g, len(cal.cols[g]), len(want))
		}
		for c := range want {
			sameBits(t, fmt.Sprintf("%s group %d column %d", what, g, c), cal.cols[g][c], want[c])
		}
	}
	sameBits(t, what+" calibration",
		calibrateThresholds(s.calibration(&cal), len(s.groups), 0.3),
		calibrateThresholds(frameCalibration(scores, len(s.groups)), len(s.groups), 0.3))
	return got
}

// TestScorerMatchesFramePath is the differential check of the
// one-pass scorer: over 1- and 30-day windows, Workers 1, 2 and 4, and
// a plain source, an in-memory store and a spilled store, its outcomes,
// row counts and calibrated thresholds equal the frame path's bit for
// bit — for a snapshot scorer, and for robust scorers that sanitize
// sentinels and gaps longer than MaxGap, with and without ".miss"
// masks. The fixture covers drives that end inside a window, NaN wear
// readings, feature gaps, and days no group admits.
func TestScorerMatchesFramePath(t *testing.T) {
	fx := getPassFixture(t)
	windows := [][2]int{{1, 1}, {85, 85}, {119, 119}, {60, 89}, {90, 119}}

	// The fixture must exercise what the test claims to cover.
	probe, err := NewScorer(fx.snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	san := passSanitize(true)
	var endsInside, nanWear, unrouted, sentinel, longGap bool
	for _, ref := range fx.robust.refs {
		last := fx.robust.last[ref.ID]
		endsInside = endsInside || (last >= 90 && last < 119)
		for d := 60; d <= last; d++ {
			mwi := fx.robust.series[ref.ID][MWIFeature][d]
			nanWear = nanWear || math.IsNaN(mwi)
			unrouted = unrouted || probe.PickGroup(mwi) < 0
		}
		for _, col := range fx.robust.series[ref.ID] {
			run := 0
			for _, v := range col {
				sentinel = sentinel || v == passSentinel
				run++
				if !san.Missing(v) {
					run = 0
				}
				longGap = longGap || run > san.MaxGap
			}
		}
	}
	if !endsInside || !nanWear || !unrouted || !sentinel || !longGap {
		t.Fatalf("fixture lacks coverage: drive ending inside a window %v, NaN wear %v, unrouted day %v, sentinel %v, gap longer than MaxGap %v",
			endsInside, nanWear, unrouted, sentinel, longGap)
	}

	// The snapshot scorer's subtests are named by source alone.
	scorers := []struct {
		name string // subtest prefix
		src  *memSource
		make func(workers int) *Scorer
	}{
		{"", fx.dirty, func(workers int) *Scorer {
			s, err := NewScorer(fx.snap, workers)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"robust/masked/", fx.robust, func(workers int) *Scorer {
			return robustScorer(fx.masked, passSanitize(true), workers)
		}},
		{"robust/unmasked/", fx.robust, func(workers int) *Scorer {
			return robustScorer(fx.unmasked, passSanitize(false), workers)
		}},
	}
	for _, sc := range scorers {
		sources := []struct {
			name string
			src  dataset.Source
		}{
			{"plain", sc.src},
			{"store", storeOver(t, sc.src, "")},
			{"spilled", storeOver(t, sc.src, t.TempDir())},
		}
		for _, workers := range []int{1, 2, 4} {
			s := sc.make(workers)
			for _, src := range sources {
				t.Run(fmt.Sprintf("%s%s/workers=%d", sc.name, src.name, workers), func(t *testing.T) {
					var buf ScoreBuf // reused across windows, as the daemon does
					alarms := 0
					for _, w := range windows {
						for _, o := range checkMatchesFramePath(t, s, src.src, w[0], w[1], &buf) {
							if o.Pred.FirstAlarmDay >= 0 {
								alarms++
							}
						}
					}
					if alarms == 0 {
						t.Error("no window raised an alarm; the thresholds test nothing")
					}
				})
			}
		}
	}
}

// TestRobustPassCountsDefectsOnce pins a robust pass's defect
// accounting, for scoring and for training: each drive with a day in
// the window has its read columns (MWI_N and the union of the groups'
// features) sanitized, and counted, exactly once — once per pass, not
// once per wear group.
func TestRobustPassCountsDefectsOnce(t *testing.T) {
	fx := getPassFixture(t)
	cases := []struct {
		name   string
		lo, hi int
		run    func(s *Scorer, lo, hi int) error
	}{
		{"score", 90, 119, func(s *Scorer, lo, hi int) error {
			_, err := s.pass(fx.robust, lo, hi, new(ScoreBuf))
			return err
		}},
		{"train", 10, 79, func(s *Scorer, lo, hi int) error {
			frames, err := trainFrames(fx.robust, smart.MC1, s.groups, lo, hi, s.cfg)
			if err == nil && len(frames) != 2 {
				err = fmt.Errorf("%d training frames", len(frames))
			}
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := robustScorer(fx.masked, passSanitize(true), 2)
			s.cfg.NegEvery = 10
			if err := tc.run(s, tc.lo, tc.hi); err != nil {
				t.Fatal(err)
			}
			var want dataset.DefectCounter
			san := passSanitize(true)
			san.Counter = &want
			for _, ref := range fx.robust.refs {
				if fx.robust.last[ref.ID] < tc.lo {
					continue
				}
				for _, ft := range s.reads {
					if col := fx.robust.series[ref.ID][ft]; col != nil {
						san.Clean(make([]float64, len(col)), col)
					}
				}
			}
			got := s.cfg.Robust.Report.Counter().Snapshot()
			if got != want.Snapshot() || got.SentinelCells == 0 || got.ImputedCells == 0 || got.ResidualCells == 0 {
				t.Fatalf("pass counted %+v, want %+v with every kind nonzero", got, want.Snapshot())
			}
		})
	}
}

// TestRunPhaseMatchesFramePath checks a phase run end to end against
// the frame reference, for a plain and a robust config at Workers 1,
// 2 and 4: the thresholds calibrated on the validation window, the
// Calibrate and Score stages' row counts, and the test outcomes are
// the reference's, float bits included.
func TestRunPhaseMatchesFramePath(t *testing.T) {
	fx := getPassFixture(t)
	ph := Phase{TrainLo: 0, TrainHi: 89, TestLo: 90, TestHi: 119}
	all := smart.MustSpec(smart.MC1).Features()
	names := func(fs []smart.Feature) []string {
		var out []string
		for _, ft := range fs {
			out = append(out, ft.String())
		}
		return out
	}
	sel := SelectorResult{
		All: names(all[:6]),
		Split: &GroupFeatures{
			ThresholdMWI: fx.snap.Groups[0].MWIBelow,
			Low:          names(append([]smart.Feature{MWIFeature}, all[:4]...)),
			High:         names(all[2:8]),
		},
	}
	for _, robust := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("robust=%v/workers=%d", robust, workers), func(t *testing.T) {
				src := fx.dirty
				cfg := Config{Forest: forest.Config{NumTrees: 4, MaxDepth: 6}, NegEvery: 3, Workers: workers, Seed: 1}
				if robust {
					src = fx.robust
					cfg.Robust = &RobustOpts{Sanitize: passSanitize(true), Report: &RunReport{}}
				}
				pd, err := PreparePhase(src, smart.MC1, ph, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := pd.RunSelection("split", sel)
				if err != nil {
					t.Fatal(err)
				}
				ref := newScorer(smart.MC1, res.groups, nil, res.cfg)
				rows := make(map[string]int)
				for _, st := range res.StageStats {
					rows[st.Stage] = st.Rows
				}

				val, valRows, err := frameScore(pd.src, ref, pd.valLo, ph.TrainHi)
				if err != nil {
					t.Fatal(err)
				}
				cal := frameCalibration(val, len(res.groups))
				failing := 0
				for _, cd := range cal {
					if cd.failDay >= cd.first {
						failing++
					}
				}
				if failing < minGroupCalibration {
					t.Fatalf("%d failing validation drives; calibration tests nothing", failing)
				}
				sameBits(t, "thresholds", res.Thresholds, calibrateThresholds(cal, len(res.groups), res.cfg.TargetRecall))
				if rows[StageCalibrate] != valRows {
					t.Errorf("calibrate rows = %d, frame path %d", rows[StageCalibrate], valRows)
				}

				test, testRows, err := frameScore(pd.src, ref, ph.TestLo, ph.TestHi)
				if err != nil {
					t.Fatal(err)
				}
				if rows[StageScore] != testRows {
					t.Errorf("score rows = %d, frame path %d", rows[StageScore], testRows)
				}
				sameOutcomes(t, "test", res.Outcomes, frameOutcomes(test, res.Thresholds, ph.TestHi))
			})
		}
	}
}

// TestScorerDayZeroWindow pins the day-0 window: ScoreInto(src, 0, 0)
// scores day 0 only, so no drive can alarm on a later day.
func TestScorerDayZeroWindow(t *testing.T) {
	fx := getPassFixture(t)
	s, err := NewScorer(fx.snap, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []dataset.Source{fx.dirty, storeOver(t, fx.dirty, "")} {
		out, err := s.ScoreInto(src, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatal("day-0 pass scored no drives")
		}
		for _, o := range out {
			if o.Pred.FirstAlarmDay != -1 && o.Pred.FirstAlarmDay != 0 {
				t.Fatalf("drive %d alarms on day %d in a day-0 window", o.Pred.DriveID, o.Pred.FirstAlarmDay)
			}
		}
	}
}

// TestScorerWindowErrors: windows outside the source are refused.
func TestScorerWindowErrors(t *testing.T) {
	fx := getPassFixture(t)
	s, err := NewScorer(fx.snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][2]int{{-1, 3}, {5, 4}, {100, passDays}} {
		if _, err := s.ScoreInto(fx.clean, w[0], w[1], nil); err == nil {
			t.Errorf("window %v accepted", w)
		}
	}
}

// FuzzScorerMatchesFramePath drives the differential check with
// random windows, worker counts, sources, missing-reading patterns
// and, for robust scorers, sentinel densities, gap bounds and masks.
func FuzzScorerMatchesFramePath(f *testing.F) {
	f.Add(uint8(85), uint8(0), uint8(1), int64(1), uint8(0), false, uint8(0), uint8(0))
	f.Add(uint8(119), uint8(29), uint8(2), int64(2), uint8(3), true, uint8(0), uint8(0))
	f.Add(uint8(1), uint8(5), uint8(4), int64(3), uint8(9), false, uint8(0), uint8(0))
	f.Add(uint8(100), uint8(20), uint8(2), int64(4), uint8(5), false, uint8(1), uint8(4))
	f.Add(uint8(60), uint8(29), uint8(3), int64(5), uint8(0), true, uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, day, window, workers uint8, seed int64, rate uint8, viaStore bool, robust, maxGap uint8) {
		fx := getPassFixture(t)
		hi := 1 + int(day)%(passDays-1)
		lo := max(0, hi-int(window)%30)
		nWorkers := 1 + int(workers)%4
		var src dataset.Source = fx.clean
		var inject []func(dataset.DriveRef, map[smart.Feature][]float64)
		if rate > 0 {
			inject = append(inject, injectMissing(seed, 2+int(rate)%40))
		}
		// robust: 0 scores the snapshot, 1 masked, 2 unmasked.
		mode := robust % 3
		if mode > 0 {
			inject = append(inject, injectDefects(seed, 2+int(rate)%60))
		}
		if len(inject) > 0 {
			dirty, err := materialize(fx.clean, inject...)
			if err != nil {
				t.Fatal(err)
			}
			src = dirty
		}
		if viaStore {
			src = storeOver(t, src, "")
		}
		var s *Scorer
		switch mode {
		case 0:
			var err error
			if s, err = NewScorer(fx.snap, nWorkers); err != nil {
				t.Fatal(err)
			}
		case 1, 2:
			groups, san := fx.masked, passSanitize(mode == 1)
			if mode == 2 {
				groups = fx.unmasked
			}
			san.MaxGap = int(maxGap) % 20
			s = robustScorer(groups, san, nWorkers)
		}
		checkMatchesFramePath(t, s, src, lo, hi, nil)
	})
}
