package store

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/smart"
)

// cancel_test.go covers context cancellation on the ingest fetch
// path: a cancelled or deadline-bounded AppendThroughCtx must return
// promptly (not serve out its retry backoff or wait on a hung
// upstream), leave the horizon and ingest counters untouched, and
// leak no goroutines once the upstream unwedges.

// waitGoroutines polls until the goroutine count returns to (near)
// base or fails the test.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for {
		n = runtime.NumGoroutine()
		if n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Errorf("goroutines stuck: %d now vs %d baseline\n%s", n, base, buf[:runtime.Stack(buf, true)])
}

// TestAppendCancelMidBackoff: a source failing every attempt with a
// long retry backoff holds the append in sleep most of the time;
// cancelling mid-backoff must interrupt the sleep immediately, leave
// nothing visible, and park no goroutines.
func TestAppendCancelMidBackoff(t *testing.T) {
	base := runtime.NumGoroutine()
	fl := faults.NewFlaky(testFleet(t), faults.FlakyConfig{FailFirst: 1 << 30})
	st := Open(fl, Options{
		Workers:          2,
		MaxFetchAttempts: 1 << 20,
		FetchBackoff:     200 * time.Millisecond,
		FetchBackoffMax:  200 * time.Millisecond,
	})
	if err := st.Track(smart.MC1); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond) // land inside a backoff sleep
		cancel()
	}()
	start := time.Now()
	err := st.AppendThroughCtx(ctx, 59)
	took := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled append error = %v, want Canceled", err)
	}
	// Prompt return: nowhere near even two 200ms backoff rounds.
	if took > 2*time.Second {
		t.Errorf("cancelled append took %v; want prompt return", took)
	}

	if h := st.Horizon(); h != 0 {
		t.Errorf("cancelled append advanced horizon to %d", h)
	}
	c := st.Counters()
	if c.DaysIngested != 0 || c.Appends != 0 {
		t.Errorf("cancelled append left counters: %+v", c)
	}
	if snap := st.Snapshot(); snap.Days() != 0 {
		t.Errorf("snapshot after cancelled append sees %d days", snap.Days())
	}
	waitGoroutines(t, base)
}

// TestAppendDeadlineOnHungSource: with no per-attempt FetchTimeout, a
// hung upstream is bounded only by the caller's context — the append
// must step out at the deadline, and after the upstream unwedges a
// clean retry ingests the exact fault-free counter baseline.
func TestAppendDeadlineOnHungSource(t *testing.T) {
	base := runtime.NumGoroutine()
	fl := faults.NewFlaky(testFleet(t), faults.FlakyConfig{HangFirst: 1})
	st := Open(fl, Options{Workers: 2})
	if err := st.Track(smart.MC1); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := st.AppendThroughCtx(ctx, 59)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline-bounded append error = %v, want DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("deadline-bounded append took %v; want ~50ms", took)
	}
	if h := st.Horizon(); h != 0 {
		t.Errorf("abandoned append advanced horizon to %d", h)
	}
	// Stepping around a hang without Source cancellation leaks the
	// fetch goroutine until the upstream unwedges; release it and the
	// count must come home.
	fl.ReleaseHung()
	waitGoroutines(t, base)

	// The upstream is healed (hangs were first-attempt-only and
	// released): the same append now succeeds in full, and the
	// visible-cell accounting matches a store that never saw a fault.
	if err := st.AppendThrough(59); err != nil {
		t.Fatalf("append after release: %v", err)
	}
	if h := st.Horizon(); h != 60 {
		t.Errorf("horizon after healed append = %d, want 60", h)
	}
	c := st.Counters()
	if want := cleanDaysThrough(t, 59); c.DaysIngested != want {
		t.Errorf("DaysIngested = %d, want %d", c.DaysIngested, want)
	}
}

// TestSnapshotSeriesCtxCancel: the snapshot read path honors its
// context too — a cancelled SeriesCtx or Columns returns the context
// error without counting a fetch error or retry.
func TestSnapshotSeriesCtxCancel(t *testing.T) {
	src := testFleet(t)
	st := Open(src, Options{MaxFetchAttempts: 3, FetchBackoff: time.Hour})
	if err := st.Track(smart.MC1); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendThrough(9); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ref := src.DrivesOf(smart.MC1)[0]
	before := st.Counters()
	if _, _, err := snap.SeriesCtx(ctx, ref); !errors.Is(err, context.Canceled) {
		t.Fatalf("SeriesCtx on cancelled ctx = %v, want Canceled", err)
	}
	after := st.Counters()
	if after.FetchErrors != before.FetchErrors || after.FetchRetries != before.FetchRetries {
		t.Errorf("cancellation counted as fetch failure: before %+v after %+v", before, after)
	}

	feats := []smart.Feature{{Attr: smart.MWI, Kind: smart.Normalized}}
	dst := make([][]float64, len(feats))
	if _, err := snap.Columns(ctx, ref, feats, dst); !errors.Is(err, context.Canceled) {
		t.Fatalf("Columns on cancelled ctx = %v, want Canceled", err)
	}
	if c := st.Counters(); c.FetchErrors != before.FetchErrors || c.FetchRetries != before.FetchRetries {
		t.Errorf("cancelled Columns counted as fetch failure: before %+v after %+v", before, c)
	}

	// The same reads with a live context serve normally.
	if _, _, err := snap.SeriesCtx(context.Background(), ref); err != nil {
		t.Fatalf("SeriesCtx after cancel: %v", err)
	}
	if _, err := snap.Columns(context.Background(), ref, feats, dst); err != nil || dst[0] == nil {
		t.Fatalf("Columns after cancel: %v (column %v)", err, dst[0])
	}
}
