package store

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/smart"
)

// editSource rewrites the series of one drive (every drive when drive
// is negative) before the store sees it.
type editSource struct {
	dataset.Source
	drive int
	edit  func(map[smart.Feature][]float64)
}

func (e editSource) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	cols, last, err := e.Source.Series(ref)
	if err != nil || (e.drive >= 0 && ref.ID != e.drive) {
		return cols, last, err
	}
	own := make(map[smart.Feature][]float64, len(cols)+1)
	for ft, col := range cols {
		own[ft] = col
	}
	e.edit(own)
	return own, last, err
}

// TestFetchRejectsFeatureOutsideCatalog: a source that reports a key
// outside the smart catalog fails the fetch with an error naming the
// drive and the key, from an append and from a lazy Columns read alike,
// and never panics. The fault is not retried: one attempt, one fetch
// error, no retry, and the drive stays unfetched.
func TestFetchRejectsFeatureOutsideCatalog(t *testing.T) {
	base := testFleet(t)
	bad := base.DrivesOf(smart.MC1)[3]
	keys := []smart.Feature{
		{},
		{Attr: smart.TLR + 1, Kind: smart.Raw},
		{Attr: smart.MWI, Kind: smart.Normalized + 1},
		{Attr: smart.MWI, Kind: 0},
	}
	for _, key := range keys {
		t.Run(key.String(), func(t *testing.T) {
			src := editSource{Source: base, drive: bad.ID, edit: func(cols map[smart.Feature][]float64) {
				cols[key] = []float64{1}
			}}
			wantErr := func(err error) {
				t.Helper()
				if err == nil {
					t.Fatal("bad feature key accepted")
				}
				for _, want := range []string{"drive " + strconv.Itoa(bad.ID), key.String()} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not name %q", err, want)
					}
				}
			}

			st := Open(src, Options{Workers: 1, MaxFetchAttempts: 3, FetchBackoff: time.Microsecond})
			if err := st.Track(smart.MC1); err != nil {
				t.Fatal(err)
			}
			wantErr(st.AppendThrough(29))
			if h := st.Horizon(); h != 0 {
				t.Errorf("horizon %d after a failed append, want 0", h)
			}
			c := st.Counters()
			if c.FetchRetries != 0 || c.FetchErrors != 1 {
				t.Errorf("counters %+v: want 0 retries and 1 fetch error", c)
			}
			before := c.SeriesFetches
			wantErr(st.AppendThrough(29))
			if got := st.Counters().SeriesFetches; got != before+1 {
				t.Errorf("second append made %d fetches, want 1: the bad drive alone, again", got-before)
			}

			// First access through a snapshot tracks the partition lazily.
			lazy := Open(src, Options{Workers: 1})
			if err := lazy.AppendThrough(29); err != nil {
				t.Fatal(err)
			}
			dst := make([][]float64, 1)
			_, err := lazy.Snapshot().Columns(context.Background(), bad, []smart.Feature{{Attr: smart.MWI, Kind: smart.Normalized}}, dst)
			wantErr(err)
		})
	}
}

// TestShortColumnVersusUnreported: a reported feature whose column is
// shorter than the horizon needs, or nil, is an error from Columns and
// SeriesCtx; a feature the drive does not report is a nil column and
// no error.
func TestShortColumnVersusUnreported(t *testing.T) {
	base := testFleet(t)
	ref := base.DrivesOf(smart.MC1)[0]
	short := smart.Feature{Attr: smart.MWI, Kind: smart.Normalized}
	reported := smart.Feature{Attr: smart.MWI, Kind: smart.Raw}
	unreported := smart.Feature{Attr: smart.TLR, Kind: smart.Raw}
	if cols, _, _ := base.Series(ref); cols[unreported] != nil || cols[short] == nil {
		t.Fatalf("fixture: want MC1 to report %v and not %v", short, unreported)
	}
	for _, tc := range []struct {
		name string
		col  func([]float64) []float64
	}{
		{"short", func(col []float64) []float64 { return col[:10] }},
		{"nil", func([]float64) []float64 { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := editSource{Source: base, drive: ref.ID, edit: func(cols map[smart.Feature][]float64) {
				cols[short] = tc.col(cols[short])
			}}
			st := Open(src, Options{Workers: 1})
			if err := st.AppendThrough(59); err != nil {
				t.Fatal(err)
			}
			snap := st.Snapshot()
			dst := make([][]float64, 2)
			last, err := snap.Columns(context.Background(), ref, []smart.Feature{unreported, reported}, dst)
			if err != nil || dst[0] != nil || len(dst[1]) != last+1 {
				t.Fatalf("unreported and full columns: err %v, %d and %d cells, last day %d", err, len(dst[0]), len(dst[1]), last)
			}
			if _, err := snap.Columns(context.Background(), ref, []smart.Feature{short}, dst[:1]); err == nil || !strings.Contains(err.Error(), short.String()) {
				t.Errorf("Columns of a %s reported column: error %v", tc.name, err)
			}
			if _, _, err := snap.SeriesCtx(context.Background(), ref); err == nil {
				t.Errorf("SeriesCtx of a drive with a %s reported column: no error", tc.name)
			}
		})
	}
}

// TestColumnsSeriesUpstreamAgree is the differential check of the
// store's read paths: at several horizons, over in-memory, spilled and
// spill-opened partitions, Columns of every catalog feature, SeriesCtx
// and the upstream source's own Series hold the same cells by
// Float64bits, truncated to the horizon, and agree on which features a
// drive does not report.
func TestColumnsSeriesUpstreamAgree(t *testing.T) {
	src := testFleet(t)
	reopenDir := t.TempDir()
	if _, err := WriteSpill(reopenDir, src, smart.MC1, 2); err != nil {
		t.Fatal(err)
	}
	catalog := make([]smart.Feature, 0, smart.NumFeatures)
	for _, a := range smart.AllAttrs() {
		catalog = append(catalog, smart.Feature{Attr: a, Kind: smart.Raw}, smart.Feature{Attr: a, Kind: smart.Normalized})
	}
	dst := make([][]float64, len(catalog))
	for _, mode := range []string{"memory", "spilled", "reopened"} {
		for _, horizon := range []int{1, 8, 57, src.Days()} {
			opts := Options{Workers: 2}
			switch mode {
			case "spilled":
				opts.SpillDir = t.TempDir()
			case "reopened":
				opts.SpillDir = reopenDir
			}
			st := Open(src, opts)
			if err := st.AppendThrough(horizon - 1); err != nil {
				t.Fatal(err)
			}
			if err := st.Track(smart.MC1); err != nil {
				t.Fatal(err)
			}
			if mode == "spilled" {
				if err := st.Spill(); err != nil {
					t.Fatal(err)
				}
			}
			snap := st.Snapshot()
			for _, ref := range src.DrivesOf(smart.MC1) {
				up, upLast, err := src.Series(ref)
				if err != nil {
					t.Fatal(err)
				}
				series, last, err := snap.SeriesCtx(context.Background(), ref)
				if err != nil {
					t.Fatalf("%s horizon %d drive %d: SeriesCtx: %v", mode, horizon, ref.ID, err)
				}
				colsLast, err := snap.Columns(context.Background(), ref, catalog, dst)
				if err != nil {
					t.Fatalf("%s horizon %d drive %d: Columns: %v", mode, horizon, ref.ID, err)
				}
				if want := min(upLast, horizon-1); last != want || colsLast != want {
					t.Fatalf("%s horizon %d drive %d: last day %d (Columns %d), want %d", mode, horizon, ref.ID, last, colsLast, want)
				}
				if len(series) != len(up) {
					t.Fatalf("%s horizon %d drive %d: %d features, upstream %d", mode, horizon, ref.ID, len(series), len(up))
				}
				for i, ft := range catalog {
					want, ok := up[ft]
					if !ok {
						if _, in := series[ft]; in || dst[i] != nil {
							t.Fatalf("%s horizon %d drive %d: unreported %v read as a column", mode, horizon, ref.ID, ft)
						}
						continue
					}
					want = want[:last+1]
					for _, got := range [][]float64{series[ft], dst[i]} {
						if len(got) != len(want) {
							t.Fatalf("%s horizon %d drive %d %v: %d cells, want %d", mode, horizon, ref.ID, ft, len(got), len(want))
						}
						for d := range want {
							if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
								t.Fatalf("%s horizon %d drive %d %v day %d: %v, want %v", mode, horizon, ref.ID, ft, d, got[d], want[d])
							}
						}
					}
				}
			}
			st.Close()
		}
	}
}

// TestWriteSpillRejectsFeatureOutsideCatalog: WriteSpill files a
// source's series through the same table as a fetch, so a bad key
// fails the write instead of producing a file no reader accepts.
func TestWriteSpillRejectsFeatureOutsideCatalog(t *testing.T) {
	src := editSource{Source: testFleet(t), drive: -1, edit: func(cols map[smart.Feature][]float64) {
		cols[smart.Feature{}] = nil
	}}
	if _, err := WriteSpill(t.TempDir(), src, smart.MC1, 2); err == nil {
		t.Fatal("spill of a series with a bad feature key succeeded")
	}
}

// TestConcurrentSpill: two Spill calls racing on one store both
// succeed, whichever of them releases the tables first, and the store
// then serves every drive bit-identically from disk.
func TestConcurrentSpill(t *testing.T) {
	src := testFleet(t)
	for round := 0; round < 10; round++ {
		st := Open(src, Options{Workers: 2, SpillDir: t.TempDir()})
		if err := st.AppendThrough(src.Days() - 1); err != nil {
			t.Fatal(err)
		}
		if err := st.Track(smart.MC1); err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 2)
		for range 2 {
			go func() { errs <- st.Spill() }()
		}
		for range 2 {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		snap := st.Snapshot()
		for _, ref := range src.DrivesOf(smart.MC1)[:10] {
			want, _, err := src.Series(ref)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := snap.Series(ref)
			if err != nil {
				t.Fatal(err)
			}
			requireSeriesBitEqual(t, want, got, "spilled")
		}
		st.Close()
	}
}
