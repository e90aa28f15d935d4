package store

import (
	"math"
	"os"
	"testing"

	"repro/internal/dataset"
	"repro/internal/smart"
)

func requireSeriesBitEqual(t *testing.T, want, got map[smart.Feature][]float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d features vs %d", label, len(want), len(got))
	}
	for ft, w := range want {
		g, ok := got[ft]
		if !ok {
			t.Fatalf("%s: missing feature %v", label, ft)
		}
		if len(w) != len(g) {
			t.Fatalf("%s: feature %v: %d days vs %d", label, ft, len(w), len(g))
		}
		for i := range w {
			if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
				t.Fatalf("%s: feature %v day %d: %v vs %v", label, ft, i, w[i], g[i])
			}
		}
	}
}

// TestSpillRoundTrip writes a spill file, reopens it through a fresh
// store, and checks every drive's series is bit-identical to the
// upstream source — with zero upstream fetches from the spilled store.
func TestSpillRoundTrip(t *testing.T) {
	src := testFleet(t)
	dir := t.TempDir()
	if _, err := WriteSpill(dir, src, smart.MC1, 3); err != nil {
		t.Fatal(err)
	}

	counting := newCountingSource(src)
	st := Open(counting, Options{Workers: 2, SpillDir: dir})
	defer st.Close()
	days := src.Days()
	if err := st.AppendThrough(days - 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Track(smart.MC1); err != nil {
		t.Fatal(err)
	}
	if n := len(counting.calls); n != 0 {
		t.Fatalf("spill-backed track fetched %d drives upstream", n)
	}

	snap := st.Snapshot()
	refs := snap.DrivesOf(smart.MC1)
	srcRefs := src.DrivesOf(smart.MC1)
	if len(refs) != len(srcRefs) {
		t.Fatalf("inventory: %d refs vs %d", len(refs), len(srcRefs))
	}
	var cells int64
	for i, ref := range refs {
		if ref != srcRefs[i] {
			t.Fatalf("ref %d: %+v vs %+v", i, ref, srcRefs[i])
		}
		want, wantLast, err := src.Series(ref)
		if err != nil {
			t.Fatal(err)
		}
		got, gotLast, err := snap.Series(ref)
		if err != nil {
			t.Fatal(err)
		}
		if gotLast != wantLast {
			t.Fatalf("drive %d last day %d vs %d", ref.ID, gotLast, wantLast)
		}
		requireSeriesBitEqual(t, want, got, "spill round-trip")
		cells += int64(wantLast + 1)
	}
	c := st.Counters()
	if c.SeriesFetches != 0 {
		t.Errorf("spilled store made %d upstream fetches", c.SeriesFetches)
	}
	if c.DaysIngested != cells {
		t.Errorf("DaysIngested = %d, want %d", c.DaysIngested, cells)
	}
}

// TestStoreSpill ingests in memory, spills, and checks snapshots taken
// before the spill keep serving bit-identical data afterwards.
func TestStoreSpill(t *testing.T) {
	src := testFleet(t)
	dir := t.TempDir()
	st := Open(src, Options{Workers: 2, SpillDir: dir})
	defer st.Close()
	if err := st.AppendThrough(src.Days() - 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Track(smart.MC1); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	refs := snap.DrivesOf(smart.MC1)
	before := make(map[int]map[smart.Feature][]float64, len(refs))
	for _, ref := range refs {
		cols, _, err := snap.Series(ref)
		if err != nil {
			t.Fatal(err)
		}
		before[ref.ID] = cols
	}
	cBefore := st.Counters()

	if err := st.Spill(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(SpillPath(dir, smart.MC1)); err != nil {
		t.Fatalf("spill file: %v", err)
	}
	for _, ref := range refs {
		cols, _, err := snap.Series(ref)
		if err != nil {
			t.Fatal(err)
		}
		requireSeriesBitEqual(t, before[ref.ID], cols, "post-spill")
	}
	// Spilling must not re-fetch or re-account anything.
	cAfter := st.Counters()
	if cAfter.SeriesFetches != cBefore.SeriesFetches || cAfter.DaysIngested != cBefore.DaysIngested {
		t.Errorf("spill changed ingest counters: %+v -> %+v", cBefore, cAfter)
	}
}

// TestDayColumns checks the per-day scoring matrix against Series on
// both the in-memory and the spill-backed paths, including the
// zero-copy single-day fast path.
func TestDayColumns(t *testing.T) {
	src := testFleet(t)
	day := 40

	check := func(t *testing.T, snap *Snapshot) {
		feats, cols, alive, err := snap.DayColumns(smart.MC1, day)
		if err != nil {
			t.Fatal(err)
		}
		if len(feats) == 0 || len(cols) != len(feats) {
			t.Fatalf("%d features, %d columns", len(feats), len(cols))
		}
		wantAlive := 0
		for _, ref := range snap.DrivesOf(smart.MC1) {
			series, lastDay, err := snap.Series(ref)
			if err != nil {
				t.Fatal(err)
			}
			if lastDay < day {
				continue
			}
			if alive[wantAlive] != ref {
				t.Fatalf("alive[%d] = %+v, want %+v", wantAlive, alive[wantAlive], ref)
			}
			for fi, ft := range feats {
				w := series[ft][day]
				g := cols[fi][wantAlive]
				if math.Float64bits(w) != math.Float64bits(g) {
					t.Fatalf("drive %d feature %v day %d: %v vs %v", ref.ID, ft, day, w, g)
				}
			}
			wantAlive++
		}
		if wantAlive != len(alive) {
			t.Fatalf("%d alive drives, want %d", len(alive), wantAlive)
		}
	}

	t.Run("memory", func(t *testing.T) {
		st := Open(src, Options{Workers: 2})
		if err := st.AppendThrough(src.Days() - 1); err != nil {
			t.Fatal(err)
		}
		check(t, st.Snapshot())
	})
	t.Run("spilled", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := WriteSpill(dir, src, smart.MC1, 2); err != nil {
			t.Fatal(err)
		}
		st := Open(src, Options{Workers: 2, SpillDir: dir})
		defer st.Close()
		if err := st.AppendThrough(src.Days() - 1); err != nil {
			t.Fatal(err)
		}
		check(t, st.Snapshot())
	})
}

// oneDaySource is a minimal single-day Source for the zero-copy path:
// every drive contributes exactly one value per feature.
type oneDaySource struct {
	refs  []dataset.DriveRef
	feats []smart.Feature
}

func (s oneDaySource) Days() int { return 1 }

func (s oneDaySource) DrivesOf(m smart.ModelID) []dataset.DriveRef {
	var out []dataset.DriveRef
	for _, r := range s.refs {
		if r.Model == m {
			out = append(out, r)
		}
	}
	return out
}

func (s oneDaySource) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	cols := make(map[smart.Feature][]float64, len(s.feats))
	for fi, ft := range s.feats {
		cols[ft] = []float64{float64(ref.ID*1000 + fi)}
	}
	return cols, 0, nil
}

// TestDayColumnsZeroCopy pins the single-day fast path: the returned
// columns alias the spill file's blob rather than copying it.
func TestDayColumnsZeroCopy(t *testing.T) {
	probeRef := testFleet(t).DrivesOf(smart.MC1)[0]
	probeCols, _, err := testFleet(t).Series(probeRef)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := newColTable(probeRef, probeCols)
	if err != nil {
		t.Fatal(err)
	}
	one := oneDaySource{feats: probe.features()}
	for i := 0; i < 120; i++ {
		one.refs = append(one.refs, dataset.DriveRef{ID: i, Model: smart.MC1, FailDay: -1})
	}
	src := dataset.Source(one)
	dir := t.TempDir()
	if _, err := WriteSpill(dir, src, smart.MC1, 2); err != nil {
		t.Fatal(err)
	}
	st := Open(src, Options{SpillDir: dir})
	defer st.Close()
	if err := st.AppendThrough(0); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	feats, cols, alive, err := snap.DayColumns(smart.MC1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(alive) != len(snap.DrivesOf(smart.MC1)) {
		t.Fatalf("%d alive of %d drives on a one-day span", len(alive), len(snap.DrivesOf(smart.MC1)))
	}
	sf := func() *spillFile {
		p, err := snap.part(smart.MC1)
		if err != nil {
			t.Fatal(err)
		}
		return p.sp.Load()
	}()
	if sf == nil {
		t.Fatal("partition is not spill-backed")
	}
	for fi := range feats {
		if len(cols[fi]) != len(alive) {
			t.Fatalf("column %d has %d values, want %d", fi, len(cols[fi]), len(alive))
		}
		if &cols[fi][0] != &sf.column(fi)[0] {
			t.Fatalf("column %d is a copy, want blob alias", fi)
		}
	}
}

// TestSpillCorrupt checks that damaged files are rejected rather than
// silently served.
func TestSpillCorrupt(t *testing.T) {
	src := testFleet(t)
	dir := t.TempDir()
	path, err := WriteSpill(dir, src, smart.MC1, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // break the trailing magic
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := Open(src, Options{SpillDir: dir})
	if err := st.Track(smart.MC1); err == nil {
		t.Fatal("corrupt spill file accepted")
	}
}
