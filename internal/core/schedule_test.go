package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/selection"
	"repro/internal/survival"
)

// wearFailRanker wraps a ranker and fails on the frames whose MWI span
// matches one of its flags: a low-MWI group (every row below 60), a
// high-MWI group (every row at 40 or above), or the global frame (rows
// on both sides).
type wearFailRanker struct {
	selection.Ranker
	low, high, global bool
}

func (r wearFailRanker) Rank(fr *frame.Frame) (selection.Result, error) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < fr.NumRows(); i++ {
		lo, hi = math.Min(lo, fr.Meta(i).MWI), math.Max(hi, fr.Meta(i).MWI)
	}
	switch {
	case r.low && hi < 60:
		return selection.Result{}, errors.New("injected failure on the low frame")
	case r.high && lo >= 40:
		return selection.Result{}, errors.New("injected failure on the high frame")
	case r.global && lo < 40 && hi >= 60:
		return selection.Result{}, errors.New("injected failure on the global frame")
	}
	return r.Ranker.Rank(fr)
}

// failingRankers is the default ensemble with its first ranker, or
// with every ranker when all is set, wrapped by a wearFailRanker.
func failingRankers(seed int64, all, low, high, global bool) []selection.Ranker {
	rs := selection.DefaultRankers(seed)
	for i := range rs {
		if i == 0 || all {
			rs[i] = wearFailRanker{Ranker: rs[i], low: low, high: high, global: global}
		}
	}
	return rs
}

// nanCurve is stepCurve with one survival rate corrupted, which change
// point detection rejects.
func nanCurve() survival.Curve {
	c := stepCurve()
	c.Rates[len(c.Rates)/2] = math.NaN()
	return c
}

// selectAt runs Select with GOMAXPROCS set to procs.
func selectAt(procs int, fr *frame.Frame, curve survival.Curve, cfg Config) (Result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return Select(fr, curve, cfg)
}

// TestSelectScheduleInvariance checks that selecting the wear groups
// alongside the global pass changes nothing: on a frame whose split
// re-selects both groups, the default schedule returns the Serial
// schedule's Result, or its error, at every GOMAXPROCS. The strict
// cases fail one ranker on chosen frames; the reported error is the
// first a serial run meets, in the order global, change point, low
// group, high group. The robust cases keep the serial notes in order.
func TestSelectScheduleInvariance(t *testing.T) {
	fr := labFrame(t, 2500, 3, 6, true, 6)
	const seed = 6
	cases := []struct {
		name    string
		cfg     Config
		curve   survival.Curve
		wantErr string   // prefix of the error; "" for success
		notes   []string // prefixes of the robust-mode notes, in order
	}{
		{name: "clean", cfg: Config{Seed: seed}, curve: stepCurve()},
		{name: "no curve", cfg: Config{Seed: seed}},
		{name: "low fails", cfg: Config{Seed: seed, Rankers: failingRankers(seed, false, true, false, false)}, curve: stepCurve(),
			wantErr: "core: low-MWI group: core: ranker Pearson: injected failure on the low frame"},
		{name: "high fails", cfg: Config{Seed: seed, Rankers: failingRankers(seed, false, false, true, false)}, curve: stepCurve(),
			wantErr: "core: high-MWI group: core: ranker Pearson: injected failure on the high frame"},
		{name: "both fail", cfg: Config{Seed: seed, Rankers: failingRankers(seed, false, true, true, false)}, curve: stepCurve(),
			wantErr: "core: low-MWI group: core: ranker Pearson: injected failure on the low frame"},
		{name: "all fail", cfg: Config{Seed: seed, Rankers: failingRankers(seed, false, true, true, true)}, curve: stepCurve(),
			wantErr: "core: ranker Pearson: injected failure on the global frame"},
		{name: "global fails before change point", cfg: Config{Seed: seed, Rankers: failingRankers(seed, false, false, false, true)}, curve: nanCurve(),
			wantErr: "core: ranker Pearson: injected failure on the global frame"},
		{name: "change point fails", cfg: Config{Seed: seed}, curve: nanCurve(), wantErr: "core: change point: "},
		{name: "robust one ranker fails in both groups", cfg: Config{Seed: seed, Rankers: failingRankers(seed, false, true, true, false), Robust: &RobustConfig{}},
			curve: stepCurve()},
		{name: "robust both groups fail", cfg: Config{Seed: seed, Rankers: failingRankers(seed, true, true, true, false), Robust: &RobustConfig{}},
			curve: stepCurve(), notes: []string{"low-MWI group inherits", "high-MWI group inherits"}},
		{name: "robust high group fails", cfg: Config{Seed: seed, Rankers: failingRankers(seed, true, false, true, false), Robust: &RobustConfig{}},
			curve: stepCurve(), notes: []string{"high-MWI group inherits"}},
		{name: "robust change point fails", cfg: Config{Seed: seed, Robust: &RobustConfig{}}, curve: nanCurve(),
			notes: []string{"change point skipped"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serialCfg := tc.cfg
			serialCfg.Serial = true
			want, wantErr := selectAt(1, fr, tc.curve, serialCfg)
			if (wantErr == nil) != (tc.wantErr == "") || wantErr != nil && !strings.HasPrefix(wantErr.Error(), tc.wantErr) {
				t.Fatalf("serial error = %v, want %q", wantErr, tc.wantErr)
			}
			if len(want.Notes) != len(tc.notes) {
				t.Fatalf("serial notes = %q, want %q", want.Notes, tc.notes)
			}
			for i, n := range tc.notes {
				if !strings.HasPrefix(want.Notes[i], n) {
					t.Fatalf("serial note %d = %q, want %q", i, want.Notes[i], n)
				}
			}
			for _, procs := range []int{1, 2, 4} {
				got, err := selectAt(procs, fr, tc.curve, tc.cfg)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("GOMAXPROCS=%d: error %v, serial %v", procs, err, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("GOMAXPROCS=%d: Result differs from the serial run", procs)
				}
			}
		})
	}
}
