package store

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/smart"
)

// These tests pin the serving daemon's core concurrency contract:
// ingest admissions (AppendThrough advancing the horizon) racing
// zero-copy snapshot readers — Series, DayColumns, RefIndex — must be
// race-clean AND value-correct. Every value a reader observes must
// equal what a fully-ingested reference store holds, truncated to the
// reader's own snapshot horizon; a horizon can never retreat between
// two snapshots a reader takes.

// refSeries captures the reference answer for every drive.
type refSeries struct {
	cols    map[smart.Feature][]float64
	lastDay int
}

func buildReference(t *testing.T, src dataset.Source) map[int]refSeries {
	t.Helper()
	ref := Open(src, Options{})
	if err := ref.Track(smart.MC1); err != nil {
		t.Fatal(err)
	}
	if err := ref.AppendThrough(src.Days() - 1); err != nil {
		t.Fatal(err)
	}
	snap := ref.Snapshot()
	out := make(map[int]refSeries)
	for _, r := range snap.DrivesOf(smart.MC1) {
		cols, last, err := snap.Series(r)
		if err != nil {
			t.Fatal(err)
		}
		out[r.ID] = refSeries{cols: cols, lastDay: last}
	}
	return out
}

func runAppendVsReaders(t *testing.T, spill bool) {
	src := testFleet(t)
	days := src.Days()
	ref := buildReference(t, src)

	opts := Options{Workers: 2}
	if spill {
		opts.SpillDir = t.TempDir()
	}
	st := Open(src, opts)
	defer st.Close()
	if err := st.Track(smart.MC1); err != nil {
		t.Fatal(err)
	}
	start := days / 4
	if err := st.AppendThrough(start - 1); err != nil {
		t.Fatal(err)
	}
	if spill {
		if err := st.Spill(); err != nil {
			t.Fatal(err)
		}
	}

	refsAll := st.Snapshot().DrivesOf(smart.MC1)
	if len(refsAll) == 0 {
		t.Fatal("no drives")
	}

	var appendsDone atomic.Bool
	var wg sync.WaitGroup

	// One admission stream, one day at a time — the serving daemon's
	// /v1/ingest pattern.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer appendsDone.Store(true)
		for d := start; d < days; d++ {
			if err := st.AppendThrough(d); err != nil {
				t.Errorf("append day %d: %v", d, err)
				return
			}
		}
	}()

	// Series readers: full per-drive reads through fresh snapshots.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := r
			lastHorizon := 0
			for !appendsDone.Load() {
				snap := st.Snapshot()
				h := snap.Days()
				if h < lastHorizon {
					t.Errorf("horizon retreated %d -> %d", lastHorizon, h)
					return
				}
				lastHorizon = h
				dr := refsAll[i%len(refsAll)]
				i += 7
				cols, last, err := snap.Series(dr)
				if err != nil {
					t.Errorf("series drive %d: %v", dr.ID, err)
					return
				}
				want := ref[dr.ID]
				wantLast := want.lastDay
				if wantLast > h-1 {
					wantLast = h - 1
				}
				if last != wantLast {
					t.Errorf("drive %d at horizon %d: lastDay %d, want %d", dr.ID, h, last, wantLast)
					return
				}
				for ft, col := range cols {
					wantCol := want.cols[ft]
					if len(col) != last+1 {
						t.Errorf("drive %d feature %v: %d days, want %d", dr.ID, ft, len(col), last+1)
						return
					}
					for d := range col {
						if col[d] != wantCol[d] && !(col[d] != col[d] && wantCol[d] != wantCol[d]) {
							t.Errorf("drive %d feature %v day %d: %v, want %v", dr.ID, ft, d, col[d], wantCol[d])
							return
						}
					}
				}
			}
		}(r)
	}

	// A Columns reader: the one-pass scorer's map-free per-drive read.
	wg.Add(1)
	go func() {
		defer wg.Done()
		feats := []smart.Feature{{Attr: smart.MWI, Kind: smart.Normalized}, smart.MustSpec(smart.MC1).Features()[0]}
		dst := make([][]float64, len(feats))
		for i := 0; !appendsDone.Load(); i += 5 {
			snap := st.Snapshot()
			dr := refsAll[i%len(refsAll)]
			last, err := snap.Columns(context.Background(), dr, feats, dst)
			if err != nil {
				t.Errorf("columns drive %d: %v", dr.ID, err)
				return
			}
			want := ref[dr.ID]
			if wantLast := min(want.lastDay, snap.Days()-1); last != wantLast {
				t.Errorf("drive %d at horizon %d: Columns last day %d, want %d", dr.ID, snap.Days(), last, wantLast)
				return
			}
			for fi, ft := range feats {
				if len(dst[fi]) != last+1 {
					t.Errorf("drive %d feature %v: %d days, want %d", dr.ID, ft, len(dst[fi]), last+1)
					return
				}
				for d, got := range dst[fi] {
					if w := want.cols[ft][d]; got != w && !(got != got && w != w) {
						t.Errorf("drive %d feature %v day %d: %v, want %v", dr.ID, ft, d, got, w)
						return
					}
				}
			}
		}
	}()

	// DayColumns readers: whole-day scoring matrices at the snapshot's
	// newest visible day — the fleet-scoring hot path.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !appendsDone.Load() {
				snap := st.Snapshot()
				day := snap.Days() - 1
				feats, cols, alive, err := snap.DayColumns(smart.MC1, day)
				if err != nil {
					t.Errorf("day columns at %d: %v", day, err)
					return
				}
				for fi, ft := range feats {
					for di, dr := range alive {
						got := cols[fi][di]
						want := ref[dr.ID].cols[ft][day]
						if got != want && !(got != got && want != want) {
							t.Errorf("day %d drive %d feature %v: %v, want %v", day, dr.ID, ft, got, want)
							return
						}
					}
				}
			}
		}()
	}

	// RefIndex readers: the per-request drive lookup path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !appendsDone.Load() {
			idx := st.Snapshot().RefIndex(smart.MC1)
			if len(idx) != len(refsAll) {
				t.Errorf("ref index has %d drives, want %d", len(idx), len(refsAll))
				return
			}
		}
	}()

	wg.Wait()

	// After the race, the store must have converged to the reference.
	snap := st.Snapshot()
	if snap.Days() != days {
		t.Fatalf("final horizon %d, want %d", snap.Days(), days)
	}
	for _, dr := range refsAll {
		cols, last, err := snap.Series(dr)
		if err != nil {
			t.Fatal(err)
		}
		want := ref[dr.ID]
		if last != want.lastDay {
			t.Fatalf("drive %d final lastDay %d, want %d", dr.ID, last, want.lastDay)
		}
		for ft, col := range cols {
			for d := range col {
				if col[d] != want.cols[ft][d] && !(col[d] != col[d] && want.cols[ft][d] != want.cols[ft][d]) {
					t.Fatalf("drive %d feature %v day %d diverged", dr.ID, ft, d)
				}
			}
		}
	}
}

func TestConcurrentAppendVsReaders(t *testing.T) {
	runAppendVsReaders(t, false)
}

func TestConcurrentAppendVsReadersSpilled(t *testing.T) {
	runAppendVsReaders(t, true)
}

// TestConcurrentAppenders: many goroutines admitting overlapping day
// ranges must serialize into one monotone horizon with each visible
// cell accounted exactly once.
func TestConcurrentAppenders(t *testing.T) {
	src := testFleet(t)
	days := src.Days()
	st := Open(src, Options{Workers: 2})
	if err := st.Track(smart.MC1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := w; d < days; d += 2 { // overlapping strides
				if err := st.AppendThrough(d); err != nil {
					t.Errorf("append %d: %v", d, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st.Horizon() != days {
		t.Fatalf("horizon %d, want %d", st.Horizon(), days)
	}
	want := int64(0)
	snap := st.Snapshot()
	for _, r := range snap.DrivesOf(smart.MC1) {
		_, last, err := snap.Series(r)
		if err != nil {
			t.Fatal(err)
		}
		want += int64(last + 1)
	}
	if got := st.Counters().DaysIngested; got != want {
		t.Fatalf("DaysIngested %d, want %d (each visible cell exactly once)", got, want)
	}
}
