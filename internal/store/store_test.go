package store

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/simulate"
	"repro/internal/smart"
)

// countingSource wraps a Source and counts Series calls, independent
// of the store's own counters.
type countingSource struct {
	dataset.Source
	calls map[int]int
}

func newCountingSource(src dataset.Source) *countingSource {
	return &countingSource{Source: src, calls: make(map[int]int)}
}

func (c *countingSource) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	c.calls[ref.ID]++
	return c.Source.Series(ref)
}

func testFleet(t *testing.T) dataset.Source {
	t.Helper()
	f, err := simulate.New(simulate.Config{TotalDrives: 200, Days: 120, Seed: 11, AFRScale: 5})
	if err != nil {
		t.Fatal(err)
	}
	return dataset.FleetSource{Fleet: f}
}

func TestAppendOnlyIngest(t *testing.T) {
	src := newCountingSource(testFleet(t))
	st := Open(src, Options{Workers: 1})

	if err := st.AppendThrough(59); err != nil {
		t.Fatal(err)
	}
	if st.Horizon() != 60 {
		t.Fatalf("horizon = %d, want 60", st.Horizon())
	}
	if err := st.Track(smart.MC1); err != nil {
		t.Fatal(err)
	}
	c1 := st.Counters()
	if c1.SeriesFetches == 0 || c1.DaysIngested == 0 {
		t.Fatalf("nothing ingested after Track: %+v", c1)
	}

	// Phase advance: only the new days are ingested, and no drive is
	// re-fetched from the upstream source.
	if err := st.AppendThrough(99); err != nil {
		t.Fatal(err)
	}
	c2 := st.Counters()
	if c2.SeriesFetches != c1.SeriesFetches {
		t.Errorf("phase advance re-fetched upstream series: %d -> %d", c1.SeriesFetches, c2.SeriesFetches)
	}
	if c2.DaysIngested <= c1.DaysIngested {
		t.Errorf("no new days ingested on advance: %d -> %d", c1.DaysIngested, c2.DaysIngested)
	}
	for id, n := range src.calls {
		if n != 1 {
			t.Errorf("drive %d fetched %d times from upstream", id, n)
		}
	}

	// Re-appending an already-visible day is a no-op.
	if err := st.AppendThrough(50); err != nil {
		t.Fatal(err)
	}
	if c3 := st.Counters(); c3.DaysIngested != c2.DaysIngested || c3.SeriesFetches != c2.SeriesFetches {
		t.Errorf("backwards append did work: %+v -> %+v", c2, c3)
	}
}

func TestAppendDayAdvancesOneDay(t *testing.T) {
	st := Open(testFleet(t), Options{Workers: 1})
	if err := st.AppendDay(); err != nil {
		t.Fatal(err)
	}
	if st.Horizon() != 1 {
		t.Fatalf("horizon after first AppendDay = %d", st.Horizon())
	}
	if err := st.AppendDay(); err != nil {
		t.Fatal(err)
	}
	if st.Horizon() != 2 {
		t.Fatalf("horizon after second AppendDay = %d", st.Horizon())
	}
}

func TestAppendThroughRejectsNegative(t *testing.T) {
	st := Open(testFleet(t), Options{})
	if err := st.AppendThrough(-1); err == nil {
		t.Error("negative day should fail")
	}
}

// TestSnapshotParity verifies a full-horizon snapshot is
// indistinguishable from the raw source: same inventory, same series
// values, same last days.
func TestSnapshotParity(t *testing.T) {
	src := testFleet(t)
	st := Open(src, Options{})
	if err := st.AppendThrough(src.Days() - 1); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if snap.Days() != src.Days() {
		t.Fatalf("snapshot days = %d, source days = %d", snap.Days(), src.Days())
	}
	refs := snap.DrivesOf(smart.MC1)
	if !reflect.DeepEqual(refs, src.DrivesOf(smart.MC1)) {
		t.Fatal("drive inventories differ")
	}
	for _, ref := range refs[:10] {
		wantCols, wantLast, err := src.Series(ref)
		if err != nil {
			t.Fatal(err)
		}
		gotCols, gotLast, err := snap.Series(ref)
		if err != nil {
			t.Fatal(err)
		}
		if gotLast != wantLast {
			t.Fatalf("drive %d lastDay = %d, want %d", ref.ID, gotLast, wantLast)
		}
		if !reflect.DeepEqual(gotCols, wantCols) {
			t.Fatalf("drive %d series differ through the store", ref.ID)
		}
	}
}

// TestSnapshotHorizonTruncation verifies an early snapshot keeps
// serving its shorter view after the store advances past it.
func TestSnapshotHorizonTruncation(t *testing.T) {
	src := testFleet(t)
	st := Open(src, Options{})
	if err := st.AppendThrough(49); err != nil {
		t.Fatal(err)
	}
	early := st.Snapshot()
	if err := st.AppendThrough(src.Days() - 1); err != nil {
		t.Fatal(err)
	}
	late := st.Snapshot()

	if early.Days() != 50 || late.Days() != src.Days() {
		t.Fatalf("days: early %d, late %d", early.Days(), late.Days())
	}
	ref := src.DrivesOf(smart.MC1)[0]
	cols, last, err := early.Series(ref)
	if err != nil {
		t.Fatal(err)
	}
	if last != 49 {
		t.Fatalf("early lastDay = %d, want 49", last)
	}
	for ft, col := range cols {
		if len(col) != 50 {
			t.Fatalf("early %v column has %d days, want 50", ft, len(col))
		}
	}
	// The late snapshot sees the same prefix values.
	lateCols, _, err := late.Series(ref)
	if err != nil {
		t.Fatal(err)
	}
	for ft, col := range cols {
		if !reflect.DeepEqual(col, lateCols[ft][:50:50]) {
			t.Fatalf("prefix of %v changed between snapshots", ft)
		}
	}
}

// TestRefIndexCached verifies the per-model drive-ref index is built
// once and shared across snapshots.
func TestRefIndexCached(t *testing.T) {
	src := testFleet(t)
	st := Open(src, Options{})
	if err := st.AppendThrough(src.Days() - 1); err != nil {
		t.Fatal(err)
	}
	a := st.Snapshot().RefIndex(smart.MC1)
	b := st.Snapshot().RefIndex(smart.MC1)
	if a == nil || len(a) == 0 {
		t.Fatal("empty ref index")
	}
	if reflect.ValueOf(a).Pointer() != reflect.ValueOf(b).Pointer() {
		t.Error("ref index rebuilt per snapshot instead of cached")
	}
	for _, r := range src.DrivesOf(smart.MC1) {
		if a[r.ID] != r {
			t.Fatalf("ref index mismatch for drive %d", r.ID)
		}
	}
}

// TestLazyTrackOnAccess verifies an untracked model is tracked and
// ingested on first snapshot access.
func TestLazyTrackOnAccess(t *testing.T) {
	src := testFleet(t)
	st := Open(src, Options{})
	if err := st.AppendThrough(src.Days() - 1); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	refs := snap.DrivesOf(smart.MB1)
	if len(refs) == 0 {
		t.Fatal("no MB1 drives via lazy tracking")
	}
	if _, _, err := snap.Series(refs[0]); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerInvariantIngest verifies parallel ingest produces the same
// counters and data as serial ingest.
func TestWorkerInvariantIngest(t *testing.T) {
	src := testFleet(t)
	run := func(workers int) (Counters, map[smart.Feature][]float64) {
		st := Open(src, Options{Workers: workers})
		if err := st.Track(smart.MC1); err != nil {
			t.Fatal(err)
		}
		if err := st.AppendThrough(src.Days() - 1); err != nil {
			t.Fatal(err)
		}
		snap := st.Snapshot()
		cols, _, err := snap.Series(snap.DrivesOf(smart.MC1)[3])
		if err != nil {
			t.Fatal(err)
		}
		c := st.Counters()
		c.Snapshots = 0 // not ingest work
		return c, cols
	}
	c1, cols1 := run(1)
	c4, cols4 := run(4)
	if c1 != c4 {
		t.Errorf("counters differ: serial %+v, parallel %+v", c1, c4)
	}
	if !reflect.DeepEqual(cols1, cols4) {
		t.Error("ingested series differ between worker counts")
	}
}

// TestColumnsMatchesSeries: Columns hands out exactly the slices Series
// maps — same backing cells, same horizon-truncated length, nil for a
// feature the drive does not report — from in-memory, spilled and
// spill-opened partitions, and a read through it accounts ingest
// exactly as one through Series does.
func TestColumnsMatchesSeries(t *testing.T) {
	src := testFleet(t)
	own := smart.MustSpec(smart.MC1).Features()
	feats := []smart.Feature{{Attr: smart.MWI, Kind: smart.Normalized}}
	feats = append(feats, own[len(own)-3:]...)
	reported := make(map[smart.Feature]bool)
	for _, ft := range own {
		reported[ft] = true
	}
	var absent smart.Feature // a column MC1 drives lack
	for _, m := range smart.AllModels() {
		for _, ft := range smart.MustSpec(m).Features() {
			if !reported[ft] && absent == (smart.Feature{}) {
				absent = ft
			}
		}
	}
	if absent == (smart.Feature{}) {
		t.Fatal("every model's features are MC1 features")
	}
	feats = append(feats, absent)

	const horizon = 80
	spillDir := t.TempDir()
	reopenDir := t.TempDir()
	if _, err := WriteSpill(reopenDir, src, smart.MC1, 2); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		opts  Options
		spill bool
	}{
		{"memory", Options{Workers: 1}, false},
		{"spilled", Options{Workers: 1, SpillDir: spillDir}, true},
		{"reopened", Options{Workers: 1, SpillDir: reopenDir}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := Open(src, tc.opts)
			defer st.Close()
			if err := st.AppendThrough(horizon - 1); err != nil {
				t.Fatal(err)
			}
			if err := st.Track(smart.MC1); err != nil {
				t.Fatal(err)
			}
			if tc.spill {
				if err := st.Spill(); err != nil {
					t.Fatal(err)
				}
			}
			snap := st.Snapshot()
			got := make([][]float64, len(feats))
			for _, ref := range snap.DrivesOf(smart.MC1) {
				series, last, err := snap.Series(ref)
				if err != nil {
					t.Fatal(err)
				}
				gotLast, err := snap.Columns(context.Background(), ref, feats, got)
				if err != nil {
					t.Fatal(err)
				}
				if gotLast != last || last >= horizon {
					t.Fatalf("drive %d: Columns last day %d, Series %d, horizon %d", ref.ID, gotLast, last, horizon)
				}
				for i, ft := range feats {
					want := series[ft]
					if len(got[i]) != len(want) || cap(got[i]) != cap(want) ||
						(len(want) > 0 && &got[i][0] != &want[0]) {
						t.Fatalf("drive %d %v: Columns gives %d/%d cells, Series %d/%d (or other memory)",
							ref.ID, ft, len(got[i]), cap(got[i]), len(want), cap(want))
					}
				}
			}
			if _, err := snap.Columns(context.Background(), snap.DrivesOf(smart.MC1)[0], feats, got[:1]); err == nil {
				t.Error("a destination shorter than feats was accepted")
			}
		})
	}

	// First access tracks and ingests the partition lazily; reading
	// every drive through Columns or through Series must account the
	// same work.
	read := func(columns bool) Counters {
		st := Open(src, Options{Workers: 1})
		if err := st.AppendThrough(horizon - 1); err != nil {
			t.Fatal(err)
		}
		snap := st.Snapshot()
		dst := make([][]float64, len(feats))
		for _, ref := range snap.DrivesOf(smart.MC1) {
			var err error
			if columns {
				_, err = snap.Columns(context.Background(), ref, feats, dst)
			} else {
				_, _, err = snap.Series(ref)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return st.Counters()
	}
	if c, s := read(true), read(false); c != s {
		t.Errorf("counters after Columns reads %+v, after Series reads %+v", c, s)
	}
}
