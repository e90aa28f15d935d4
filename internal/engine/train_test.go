package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/featgen"
	"repro/internal/forest"
	"repro/internal/frame"
	"repro/internal/smart"
)

// Training frames come from the scorer's row assembly (trainFrames);
// these tests check them against the frame-path reference
// (refTrainFrames, in pass_test.go) at Workers 1, 2 and 4, and pin what
// the reference's tests used to pin in internal/dataset: expansion,
// wear filters and ".miss" masks.

// trainCase is one group layout of the training differential.
type trainCase struct {
	name   string
	groups func(fx *passFixture) []group
	// fallback names the groups the reference must build from the
	// whole population.
	fallback []int
}

// trainCases are the layouts the differential covers: one unbounded
// group, the fixture's low/high split (NaN wear lands low), and a
// split whose high group admits no day, so it falls back to the whole
// population.
func trainCases() []trainCase {
	all := smart.MustSpec(smart.MC1).Features()
	return []trainCase{
		{name: "one-group", groups: func(*passFixture) []group {
			return []group{{feats: all[:6]}}
		}},
		{name: "two-groups", groups: func(fx *passFixture) []group {
			t := fx.snap.Groups[0].MWIBelow
			return []group{
				{feats: append([]smart.Feature{MWIFeature}, all[:4]...), mwiBelow: t},
				{feats: all[2:8], mwiAtLeast: t},
			}
		}},
		{name: "degenerate", groups: func(*passFixture) []group {
			return []group{
				{feats: all[1:5], mwiBelow: 1000},
				{feats: all[3:7], mwiAtLeast: 1000},
			}
		}, fallback: []int{1}},
	}
}

// checkTrainFrames builds groups' training frames over [lo, hi] of src
// with the reference, and with trainFrames reading read (src when nil:
// a store snapshot over src must give the same frames), and requires
// identical frames. It returns the frames.
func checkTrainFrames(t testing.TB, src, read dataset.Source, groups []group, lo, hi int, cfg Config) []*frame.Frame {
	t.Helper()
	if read == nil {
		read = src
	}
	want, wantErr := refTrainFrames(src, smart.MC1, groups, lo, hi, cfg)
	got, err := trainFrames(read, smart.MC1, groups, lo, hi, cfg)
	if wantErr != nil || err != nil {
		if !errors.Is(err, ErrNoTrainingSignal) || !errors.Is(wantErr, ErrNoTrainingSignal) {
			t.Fatalf("[%d, %d]: trainFrames error %v, reference error %v", lo, hi, err, wantErr)
		}
		return nil
	}
	if len(got) != len(want) {
		t.Fatalf("[%d, %d]: %d frames, reference %d", lo, hi, len(got), len(want))
	}
	for g := range want {
		sameFrame(t, fmt.Sprintf("[%d, %d] group %d", lo, hi, g), got[g], want[g])
	}
	return got
}

// robustCfg is the training config of the robust fixture: the pass
// fixture's cleaning, with or without ".miss" masks.
func robustCfg(cfg Config, mask bool) Config {
	cfg.Robust = &RobustOpts{Sanitize: passSanitize(mask), Report: &RunReport{}}
	return cfg
}

// TestTrainFramesMatchReference is the differential check of training
// frames: for one group, a two-group wear split and a split with a
// degenerate group, at Workers 1, 2 and 4, over a plain source with
// NaN wear and feature gaps and over a robust source with sentinels and
// gaps longer than MaxGap (with and without ".miss" masks), the frames
// trainFrames builds equal the reference's in names, cells (by
// Float64bits), labels, metadata and row order.
func TestTrainFramesMatchReference(t *testing.T) {
	fx := getPassFixture(t)
	sources := []struct {
		name string
		src  dataset.Source
		cfg  func(Config) Config
	}{
		{"plain", fx.dirty, func(c Config) Config { return c }},
		{"robust/masked", fx.robust, func(c Config) Config { return robustCfg(c, true) }},
		{"robust/unmasked", fx.robust, func(c Config) Config { return robustCfg(c, false) }},
	}
	for _, tc := range trainCases() {
		groups := tc.groups(fx)
		for _, sc := range sources {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", tc.name, sc.name, workers), func(t *testing.T) {
					cfg := sc.cfg(Config{NegEvery: 10, Workers: workers})
					for _, w := range [][2]int{{0, 79}, {20, 89}} {
						frames := checkTrainFrames(t, sc.src, nil, groups, w[0], w[1], cfg)
						if frames == nil {
							t.Fatalf("window %v: no training signal", w)
						}
						nanWear := false
						for g, fr := range frames {
							// Only a fallback frame, the whole
							// population's, holds days its group's wear
							// bounds do not admit.
							outside := false
							for i := 0; i < fr.NumRows(); i++ {
								mwi := fr.Meta(i).MWI
								nanWear = nanWear || math.IsNaN(mwi)
								outside = outside || newScorer(smart.MC1, groups[g:g+1], nil, cfg).PickGroup(mwi) < 0
							}
							if outside != slices.Contains(tc.fallback, g) {
								t.Fatalf("window %v group %d: holds days outside its wear bounds %v, want %v",
									w, g, outside, slices.Contains(tc.fallback, g))
							}
						}
						if sc.name == "plain" && !nanWear {
							t.Errorf("window %v: no training row has NaN wear; the fixture tests nothing", w)
						}
					}
				})
			}
		}
	}
}

// TestTrainFrameExpand pins a training frame's columns: the original
// features, then each feature's generated statistics by name, and a
// windowed max never below that day's reading.
func TestTrainFrameExpand(t *testing.T) {
	fx := getPassFixture(t)
	uce := smart.Feature{Attr: smart.UCE, Kind: smart.Raw}
	frames, err := trainFrames(fx.clean, smart.MC1, []group{{feats: []smart.Feature{uce, MWIFeature}}}, 0, passDays-1, Config{NegEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	fr := frames[0]
	if want := 2 * (1 + featgen.NumGenerated(featgen.DefaultWindows)); fr.NumFeatures() != want {
		t.Fatalf("expanded features = %d, want %d", fr.NumFeatures(), want)
	}
	if fr.ColIndex("UCE_R.max7") < 0 || fr.ColIndex("MWI_N.wma3") < 0 {
		t.Errorf("expanded names missing: %v", fr.Names())
	}
	raw, _ := fr.ColByName("UCE_R")
	mx, _ := fr.ColByName("UCE_R.max7")
	for i := range raw {
		if mx[i] < raw[i] {
			t.Fatalf("max7 %v < raw %v at %d", mx[i], raw[i], i)
		}
	}
}

// TestTrainFramesWearFilter pins the wear split of training rows: the
// low group holds only days below the threshold plus every NaN-wear
// day, the high group only days at or above it, and no day lands in
// both.
func TestTrainFramesWearFilter(t *testing.T) {
	fx := getPassFixture(t)
	groups := trainCases()[1].groups(fx)
	threshold := groups[0].mwiBelow
	frames, err := trainFrames(fx.dirty, smart.MC1, groups, 0, passDays-1, Config{NegEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	type driveDay struct{ drive, day int }
	seen := make(map[driveDay]bool)
	nan := 0
	for g, fr := range frames {
		for i := 0; i < fr.NumRows(); i++ {
			m := fr.Meta(i)
			if seen[driveDay{m.DriveID, m.Day}] {
				t.Fatalf("drive %d day %d in both groups", m.DriveID, m.Day)
			}
			seen[driveDay{m.DriveID, m.Day}] = true
			switch {
			case math.IsNaN(m.MWI):
				nan++
				if g != 0 {
					t.Fatalf("NaN wear leaked into group %d", g)
				}
			case g == 0 && m.MWI >= threshold:
				t.Fatalf("low group holds wear %v >= %v", m.MWI, threshold)
			case g == 1 && m.MWI < threshold:
				t.Fatalf("high group holds wear %v < %v", m.MWI, threshold)
			}
		}
	}
	if nan == 0 {
		t.Error("no NaN-wear row; the fixture tests nothing")
	}
}

// maskSource serves two MC1 drives with MWI_N and RSC_R readings 100 +
// day: drive 1 has a short gap (days 10-11), a sentinel at day 20 and
// a long gap (days 30-47); drive 2 is clean and fails on day 55.
type maskSource struct{ days int }

func (m maskSource) Days() int { return m.days }

func (m maskSource) DrivesOf(model smart.ModelID) []dataset.DriveRef {
	return []dataset.DriveRef{
		{ID: 1, Model: smart.MC1, FailDay: -1},
		{ID: 2, Model: smart.MC1, FailDay: m.days - 5},
	}
}

func (m maskSource) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	cols := make(map[smart.Feature][]float64)
	for _, ft := range []smart.Feature{MWIFeature, {Attr: smart.RSC, Kind: smart.Raw}} {
		col := make([]float64, m.days)
		for day := range col {
			col[day] = float64(100 + day)
		}
		if ref.ID == 1 {
			col[10], col[11] = math.NaN(), math.NaN()
			col[20] = 65535
			for day := 30; day < 48; day++ {
				col[day] = math.NaN()
			}
		}
		cols[ft] = col
	}
	return cols, m.days - 1, nil
}

// TestTrainFrameMissMaskColumns pins a robust training frame's masks:
// one ".miss" column per feature, last, set where the raw reading was
// missing or a sentinel and the value imputed, clear elsewhere.
func TestTrainFrameMissMaskColumns(t *testing.T) {
	src := maskSource{days: 60}
	rsc := smart.Feature{Attr: smart.RSC, Kind: smart.Raw}
	cfg := Config{NegEvery: 1, Robust: &RobustOpts{Sanitize: dataset.SanitizeOpts{
		MaxGap: 5, Sentinels: []float64{65535}, MissMask: true,
	}}}
	frames, err := trainFrames(src, smart.MC1, []group{{feats: []smart.Feature{MWIFeature, rsc}}}, 0, src.days-1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fr := frames[0]
	names := fr.Names()
	nMask := 0
	for _, n := range names {
		if strings.HasSuffix(n, ".miss") {
			nMask++
		}
	}
	if nMask != 2 {
		t.Fatalf("frame has %d mask columns (%v), want 2", nMask, names)
	}
	if names[len(names)-2] != "MWI_N.miss" || names[len(names)-1] != "RSC_R.miss" {
		t.Errorf("mask columns misnamed or misplaced: %v", names[len(names)-2:])
	}
	maskCol := fr.Col(len(names) - 2)
	valCol := fr.Col(0)
	// Drive 1, one row per day: day 10 imputed and masked, day 9
	// observed, the sentinel on day 20 masked.
	if maskCol[10] != 1 || valCol[10] != 109 {
		t.Errorf("day 10: mask %v value %v, want 1 / 109", maskCol[10], valCol[10])
	}
	if maskCol[9] != 0 || maskCol[20] != 1 {
		t.Errorf("day 9 mask %v, day 20 mask %v, want 0 / 1", maskCol[9], maskCol[20])
	}
	// Drive 2 (clean) rows: all masks zero.
	for i := src.days; i < fr.NumRows(); i++ {
		if maskCol[i] != 0 {
			t.Fatalf("clean drive has mask bit set at row %d", i)
		}
	}
}

// seriesCounter counts Series calls per drive.
type seriesCounter struct {
	dataset.Source
	mu    sync.Mutex
	calls map[int]int
}

func (c *seriesCounter) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	c.mu.Lock()
	c.calls[ref.ID]++
	c.mu.Unlock()
	return c.Source.Series(ref)
}

// TestTrainReadsEachDriveOnce: a two-group training pass reads every
// drive once, not once per group.
func TestTrainReadsEachDriveOnce(t *testing.T) {
	fx := getPassFixture(t)
	src := &seriesCounter{Source: fx.dirty, calls: make(map[int]int)}
	groups := trainCases()[1].groups(fx)
	if _, err := trainFrames(src, smart.MC1, groups, 0, 79, Config{NegEvery: 10, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	refs := fx.dirty.DrivesOf(smart.MC1)
	if len(src.calls) != len(refs) {
		t.Fatalf("%d drives read, inventory has %d", len(src.calls), len(refs))
	}
	for id, n := range src.calls {
		if n != 1 {
			t.Fatalf("drive %d read %d times", id, n)
		}
	}
}

// TestPhaseRowsEndAtFitHi pins the fit period's end: no selection or
// training row of a phase lies after its last fit day, including a fit
// period that ends on day 0, where the test days begin two days later.
func TestPhaseRowsEndAtFitHi(t *testing.T) {
	fx := getPassFixture(t)
	// Drives that fail within a month make day 0 a positive day.
	early := &memSource{days: fx.clean.days, series: fx.clean.series, last: fx.clean.last}
	for i, ref := range fx.clean.refs {
		if i%10 == 0 {
			ref.FailDay = 20
		}
		early.refs = append(early.refs, ref)
	}
	cfg := Config{Forest: forest.Config{NumTrees: 2, MaxDepth: 3}, NegEvery: 3, Workers: 2}
	for _, ph := range []Phase{{0, 1, 2, 40}, {0, 59, 60, 89}} {
		t.Run(fmt.Sprintf("train=[%d,%d]", ph.TrainLo, ph.TrainHi), func(t *testing.T) {
			pd, err := PreparePhase(early, smart.MC1, ph, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, fr *frame.Frame) {
				t.Helper()
				if fr.NumRows() == 0 {
					t.Fatalf("%s has no rows", what)
				}
				for i := 0; i < fr.NumRows(); i++ {
					if d := fr.Meta(i).Day; d < ph.TrainLo || d > pd.fitHi {
						t.Fatalf("%s row %d on day %d, fit period [%d, %d]", what, i, d, ph.TrainLo, pd.fitHi)
					}
				}
			}
			check("selection frame", pd.SelFrame)
			groups := trainCases()[1].groups(fx)
			frames, err := trainFrames(pd.src, smart.MC1, groups, ph.TrainLo, pd.fitHi, pd.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			for g, fr := range frames {
				check(fmt.Sprintf("group %d training frame", g), fr)
				rows += fr.NumRows()
			}
			// The phase's Train stage trains on exactly these rows.
			names := func(g group) []string {
				var out []string
				for _, ft := range g.feats {
					out = append(out, ft.String())
				}
				return out
			}
			res, err := pd.RunSelection("split", SelectorResult{
				All:   names(groups[0]),
				Split: &GroupFeatures{ThresholdMWI: groups[0].mwiBelow, Low: names(groups[0]), High: names(groups[1])},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range res.StageStats {
				if st.Stage == StageTrain && st.Rows != rows {
					t.Errorf("train stage rows = %d, frames hold %d", st.Rows, rows)
				}
			}
		})
	}
}

// FuzzTrainFramesMatchReference drives the training differential with
// random fit windows, negative strides, worker counts, group layouts,
// missing-reading patterns and, for robust configs, sentinel densities,
// gap bounds and masks. workers/4 also picks where the pass reads the
// drives from: the source itself, or a store snapshot over it held in
// memory or spilled to disk (the reference always reads the source).
func FuzzTrainFramesMatchReference(f *testing.F) {
	f.Add(uint8(0), uint8(79), uint8(10), uint8(1), uint8(1), int64(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(20), uint8(60), uint8(7), uint8(2), uint8(2), int64(2), uint8(3), uint8(1), uint8(4))
	f.Add(uint8(5), uint8(100), uint8(3), uint8(4), uint8(0), int64(3), uint8(9), uint8(2), uint8(0))
	f.Add(uint8(50), uint8(10), uint8(1), uint8(3), uint8(1), int64(4), uint8(5), uint8(1), uint8(17))
	f.Add(uint8(0), uint8(119), uint8(4), uint8(5), uint8(1), int64(5), uint8(6), uint8(0), uint8(0))
	f.Add(uint8(10), uint8(90), uint8(2), uint8(10), uint8(2), int64(6), uint8(4), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, lo, span, negEvery, workers, layout uint8, seed int64, rate, robust, maxGap uint8) {
		fx := getPassFixture(t)
		from := int(lo) % passDays
		to := min(passDays-1, from+int(span))
		cfg := Config{NegEvery: 1 + int(negEvery)%15, Workers: 1 + int(workers)%4}
		var inject []func(dataset.DriveRef, map[smart.Feature][]float64)
		if rate > 0 {
			inject = append(inject, injectMissing(seed, 2+int(rate)%40))
		}
		// robust: 0 plain, 1 masked, 2 unmasked.
		if mode := robust % 3; mode > 0 {
			inject = append(inject, injectDefects(seed, 2+int(rate)%60))
			cfg = robustCfg(cfg, mode == 1)
			cfg.Robust.Sanitize.MaxGap = int(maxGap) % 20
		}
		var src dataset.Source = fx.clean
		if len(inject) > 0 {
			dirty, err := materialize(fx.clean, inject...)
			if err != nil {
				t.Fatal(err)
			}
			src = dirty
		}
		var read dataset.Source
		switch workers / 4 % 3 {
		case 1:
			read = storeOver(t, src, "")
		case 2:
			read = storeOver(t, src, t.TempDir())
		}
		cases := trainCases()
		checkTrainFrames(t, src, read, cases[int(layout)%len(cases)].groups(fx), from, to, cfg)
	})
}
