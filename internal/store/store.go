// Package store provides an append-only, day-partitioned columnar
// fleet store between a raw dataset.Source and the staged prediction
// engine. A Store ingests drive series from its upstream source once —
// one Series fetch per drive, counted — and serves immutable Snapshot
// views bounded by an ingest horizon that only ever advances
// (AppendDay / AppendThrough). A phase advance therefore reuses every
// already-ingested day instead of regenerating the fleet, which the
// ingest counters make assertable.
//
// Snapshots implement dataset.Source, so every existing consumer
// (frame extraction, survival curves, the selectors) reads through the
// store unchanged, and additionally cache the per-model drive-ref
// index that scoring passes previously rebuilt on every call.
package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/smart"
)

// ErrHorizonRetreat indicates an append that would move the ingest
// horizon backwards; the store is append-only.
var ErrHorizonRetreat = errors.New("store: horizon cannot retreat")

// ErrFetchTimeout indicates an upstream Series fetch that exceeded the
// per-attempt deadline (Options.FetchTimeout).
var ErrFetchTimeout = errors.New("store: fetch deadline exceeded")

// Counters accounts the store's ingest work. All counts are cumulative
// since Open.
type Counters struct {
	// SeriesFetches is the number of upstream Source.Series attempts
	// (retries included). Once every tracked drive is ingested it
	// stays flat: snapshots serve reads from the store, and appending
	// more days never re-fetches a drive.
	SeriesFetches int64
	// DaysIngested is the number of (drive, day) cells made visible by
	// horizon advances, counted exactly once per cell. A failed append
	// leaves it untouched: cells only count once they are actually
	// visible to snapshots.
	DaysIngested int64
	// Appends is the number of AppendDay/AppendThrough calls that
	// advanced the horizon.
	Appends int64
	// Snapshots is the number of Snapshot views taken.
	Snapshots int64
	// FetchRetries is the number of retry attempts after transient
	// upstream fetch errors (attempts beyond each call's first).
	FetchRetries int64
	// FetchErrors is the number of upstream fetch attempts that
	// returned an error (or timed out), whether or not a retry later
	// succeeded.
	FetchErrors int64
}

// Options configures a Store.
type Options struct {
	// Workers bounds per-drive ingest parallelism during AppendThrough
	// and Track; 0 means GOMAXPROCS. The ingested data is identical
	// for any value.
	Workers int
	// MaxFetchAttempts bounds upstream Series attempts per drive fetch:
	// after the first attempt fails, up to MaxFetchAttempts-1 retries
	// follow with exponential backoff. 0 or 1 means a single attempt
	// (no retry), the legacy behavior.
	MaxFetchAttempts int
	// FetchBackoff is the delay before the first retry, doubling per
	// subsequent retry up to FetchBackoffMax; 0 means 10ms.
	FetchBackoff time.Duration
	// FetchBackoffMax caps the growing backoff; 0 means 1s.
	FetchBackoffMax time.Duration
	// FetchTimeout is the per-attempt deadline on an upstream Series
	// call; 0 means no deadline. A timed-out attempt counts as a fetch
	// error and is retried like one. The abandoned call's goroutine is
	// left to finish in the background (the Source interface has no
	// cancellation), so a truly hung upstream leaks one goroutine per
	// timed-out attempt.
	FetchTimeout time.Duration
	// SpillDir enables disk-backed partitions. A tracked model whose
	// spill file (SpillPath) exists under the directory is served from
	// that file — memory-mapped, no upstream fetches, no resident
	// columns — and Spill writes ingested partitions there to release
	// their in-memory columns. Empty disables spilling.
	SpillDir string
}

// Store is the append-only fleet store. Safe for concurrent use; all
// mutation is append-only, so Snapshot views stay valid forever.
type Store struct {
	src  dataset.Source
	opts Options

	mu      sync.RWMutex
	horizon int // days visible to new snapshots
	parts   map[smart.ModelID]*partition

	seriesFetches atomic.Int64
	daysIngested  atomic.Int64
	appends       atomic.Int64
	snapshots     atomic.Int64
	fetchRetries  atomic.Int64
	fetchErrors   atomic.Int64
}

// partition holds one drive model's inventory and columnar series.
// A partition serves from in-memory driveCols, from a spill file (sp),
// or both in sequence: Spill publishes sp before releasing the columns,
// so concurrent readers always find the data in one of the two places.
// Partitions opened directly from a spill file have no driveCols at all
// (drives and byID are nil) and account visibility in spVisible.
type partition struct {
	refs     []dataset.DriveRef
	refIndex map[int]dataset.DriveRef
	idxByID  map[int]int // drive ID -> index in refs / spill order
	byID     map[int]*driveCols
	drives   []*driveCols

	sp        atomic.Pointer[spillFile]
	spVisible atomic.Int64 // cells accounted for drive-less spill partitions
}

// driveCols is one drive's ingested columns. Columns hold the full
// fetched series; visibility is bounded by the snapshot horizon, and
// visible (drive, day) cells are accounted exactly once in
// Counters.DaysIngested. A failed fetch leaves the drive unfetched so
// a later ingest retries it — transient upstream errors must not wedge
// a drive permanently.
type driveCols struct {
	mu      sync.Mutex // serializes fetch attempts for this drive
	fetched bool
	lastDay int
	visible atomic.Int64 // days already accounted as ingested
	cols    map[smart.Feature][]float64
}

// Open wraps an upstream source in an empty store (horizon 0, nothing
// ingested). Models are tracked lazily on first access, or eagerly via
// Track.
func Open(src dataset.Source, opts Options) *Store {
	return &Store{src: src, opts: opts, parts: make(map[smart.ModelID]*partition)}
}

// SourceDays returns the upstream dataset span, independent of how
// much has been ingested.
func (st *Store) SourceDays() int { return st.src.Days() }

// Horizon returns the current ingest horizon in days: snapshots taken
// now observe days [0, Horizon()-1].
func (st *Store) Horizon() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.horizon
}

// Counters returns a snapshot of the cumulative ingest counters.
func (st *Store) Counters() Counters {
	return Counters{
		SeriesFetches: st.seriesFetches.Load(),
		DaysIngested:  st.daysIngested.Load(),
		Appends:       st.appends.Load(),
		Snapshots:     st.snapshots.Load(),
		FetchRetries:  st.fetchRetries.Load(),
		FetchErrors:   st.fetchErrors.Load(),
	}
}

// Track creates the model's partition (fetching the upstream drive
// inventory) and ingests its drives through the current horizon. It is
// idempotent; untracked models are also tracked implicitly by the
// first Snapshot access that touches them.
func (st *Store) Track(m smart.ModelID) error {
	st.mu.RLock()
	horizon := st.horizon
	p := st.parts[m]
	st.mu.RUnlock()
	if p == nil {
		var err error
		if p, err = st.createPartition(m); err != nil {
			return err
		}
	}
	return st.ingest(p, horizon)
}

// createPartition installs the model's partition. When Options.SpillDir
// holds a spill file for the model, the partition is disk-backed from
// the start: inventory and series both come from the file and the
// upstream source is never consulted. Otherwise the upstream inventory
// is fetched exactly once.
func (st *Store) createPartition(m smart.ModelID) (*partition, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if p, ok := st.parts[m]; ok {
		return p, nil
	}
	if dir := st.opts.SpillDir; dir != "" {
		sf, refs, err := openSpill(SpillPath(dir, m), m)
		switch {
		case err == nil:
			p := &partition{
				refs:     refs,
				refIndex: make(map[int]dataset.DriveRef, len(refs)),
				idxByID:  make(map[int]int, len(refs)),
			}
			for i, r := range refs {
				p.refIndex[r.ID] = r
				p.idxByID[r.ID] = i
			}
			p.sp.Store(sf)
			st.parts[m] = p
			return p, nil
		case !errors.Is(err, os.ErrNotExist):
			return nil, err
		}
	}
	refs := st.src.DrivesOf(m)
	p := &partition{
		refs:     refs,
		refIndex: make(map[int]dataset.DriveRef, len(refs)),
		idxByID:  make(map[int]int, len(refs)),
		byID:     make(map[int]*driveCols, len(refs)),
		drives:   make([]*driveCols, len(refs)),
	}
	for i, r := range refs {
		p.refIndex[r.ID] = r
		p.idxByID[r.ID] = i
		p.drives[i] = &driveCols{lastDay: -1}
		p.byID[r.ID] = p.drives[i]
	}
	st.parts[m] = p
	return p, nil
}

// AppendDay advances the ingest horizon by one day.
func (st *Store) AppendDay() error {
	st.mu.RLock()
	horizon := st.horizon
	st.mu.RUnlock()
	return st.AppendThrough(horizon)
}

// AppendThrough advances the ingest horizon so that days [0, day] are
// visible, ingesting only the not-yet-ingested days of every tracked
// partition. Re-appending an already-visible day is a no-op; a horizon
// can never retreat, so snapshots stay immutable.
//
// The horizon advances only after every tracked partition has ingested
// successfully: a source error partway through an append leaves the
// visible horizon — and therefore every snapshot, and the DaysIngested
// counter — exactly where it was, with no partially-visible day.
// Drives fetched before the failure stay cached, so retrying the
// append redoes only the failed fetches.
func (st *Store) AppendThrough(day int) error {
	return st.AppendThroughCtx(context.Background(), day)
}

// AppendThroughCtx is AppendThrough under a context: cancellation or
// an expired deadline abandons the append promptly — mid-backoff and
// mid-fetch included — with the same nothing-visible guarantee as any
// other failed append. Drives fetched before the cancellation stay
// cached for the next attempt.
func (st *Store) AppendThroughCtx(ctx context.Context, day int) error {
	if day < 0 {
		return fmt.Errorf("%w: day %d", ErrHorizonRetreat, day)
	}
	newHorizon := day + 1
	st.mu.RLock()
	cur := st.horizon
	parts := make([]*partition, 0, len(st.parts))
	for _, p := range st.parts {
		parts = append(parts, p)
	}
	st.mu.RUnlock()
	if newHorizon <= cur {
		return nil
	}

	for _, p := range parts {
		if err := st.fetchPartition(ctx, p); err != nil {
			return err
		}
	}

	st.mu.Lock()
	advanced := newHorizon > st.horizon
	if advanced {
		st.horizon = newHorizon
	}
	st.mu.Unlock()
	if !advanced {
		// A concurrent append got there first — and accounted the cells.
		return nil
	}
	st.appends.Add(1)
	for _, p := range parts {
		st.accountPartition(p, newHorizon)
	}
	return nil
}

// ingest brings every drive of the partition up to the given horizon,
// fetching each drive's upstream series as needed and accounting the
// newly visible days.
func (st *Store) ingest(p *partition, horizon int) error {
	if horizon <= 0 {
		return nil
	}
	if err := st.fetchPartition(context.Background(), p); err != nil {
		return err
	}
	st.accountPartition(p, horizon)
	return nil
}

// accountPartition records the partition's newly visible (drive, day)
// cells up to the horizon, exactly once per cell. Drive-less spill
// partitions account at the partition level; everything else per drive.
func (st *Store) accountPartition(p *partition, horizon int) {
	if p.drives == nil {
		sf := p.sp.Load()
		if sf == nil {
			return
		}
		var want int64
		for i := range p.refs {
			want += min(int64(horizon), sf.offs[i+1]-sf.offs[i])
		}
		for {
			have := p.spVisible.Load()
			if want <= have {
				return
			}
			if p.spVisible.CompareAndSwap(have, want) {
				st.daysIngested.Add(want - have)
				return
			}
		}
	}
	for _, dc := range p.drives {
		st.accountVisible(dc, horizon)
	}
}

// fetchPartition brings every drive of the partition into the store
// (already-fetched drives are skipped), in parallel per Options.
// Workers. Spill-backed partitions already hold everything on disk.
// It does not touch visibility accounting. A cancelled context stops
// the sweep promptly: workers abandon their remaining drives and the
// first context error is returned.
func (st *Store) fetchPartition(ctx context.Context, p *partition) error {
	if p.sp.Load() != nil {
		return nil
	}
	workers := st.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(p.drives) {
		workers = len(p.drives)
	}
	if workers <= 1 {
		for i := range p.drives {
			if err := st.fetchDrive(ctx, p.refs[i], p.drives[i]); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(p.drives))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.drives) {
					return
				}
				errs[i] = st.fetchDrive(ctx, p.refs[i], p.drives[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fetchDrive ensures the drive's series is in the store, retrying
// transient upstream errors with bounded exponential backoff and a
// per-attempt deadline (Options). A drive whose fetch ultimately fails
// is left unfetched, so the next ingest attempts it again. A context
// cancellation aborts promptly — it cuts a backoff sleep short and is
// returned unretried without counting as an upstream fetch error.
func (st *Store) fetchDrive(ctx context.Context, ref dataset.DriveRef, dc *driveCols) error {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if dc.fetched {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("store: fetch drive %d (model %v): %w", ref.ID, ref.Model, err)
	}
	attempts := st.opts.MaxFetchAttempts
	if attempts <= 0 {
		attempts = 1
	}
	backoff := st.opts.FetchBackoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	maxBackoff := st.opts.FetchBackoffMax
	if maxBackoff <= 0 {
		maxBackoff = time.Second
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if err := sleepCtx(ctx, backoff); err != nil {
				return fmt.Errorf("store: fetch drive %d (model %v): %w", ref.ID, ref.Model, err)
			}
			st.fetchRetries.Add(1)
			backoff = min(backoff*2, maxBackoff)
		}
		cols, lastDay, err := st.fetchSeries(ctx, ref)
		st.seriesFetches.Add(1)
		if err == nil {
			dc.cols = cols
			dc.lastDay = lastDay
			dc.fetched = true
			return nil
		}
		if ctx.Err() != nil {
			// The caller gave up, not the upstream: surface the context
			// error without counting or retrying an upstream failure.
			return fmt.Errorf("store: fetch drive %d (model %v): %w", ref.ID, ref.Model, ctx.Err())
		}
		st.fetchErrors.Add(1)
		lastErr = err
	}
	return fmt.Errorf("store: fetch drive %d (model %v) failed after %d attempt(s): %w",
		ref.ID, ref.Model, attempts, lastErr)
}

// sleepCtx sleeps for d or until the context is done, whichever is
// first, returning the context's error in the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// fetchSeries runs one upstream Series attempt under the per-attempt
// deadline (when one is configured) and the caller's context. The
// dataset.Source interface has no cancellation, so an abandoned
// attempt's goroutine is left to finish in the background; a truly
// hung upstream therefore leaks one goroutine per abandoned attempt
// until it unwedges.
func (st *Store) fetchSeries(ctx context.Context, ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	timeout := st.opts.FetchTimeout
	if timeout <= 0 && ctx.Done() == nil {
		return st.src.Series(ref)
	}
	type result struct {
		cols    map[smart.Feature][]float64
		lastDay int
		err     error
	}
	ch := make(chan result, 1)
	go func() {
		cols, lastDay, err := st.src.Series(ref)
		ch <- result{cols, lastDay, err}
	}()
	var timerC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timerC = timer.C
	}
	select {
	case r := <-ch:
		return r.cols, r.lastDay, r.err
	case <-timerC:
		return nil, 0, fmt.Errorf("%w: drive %d after %v", ErrFetchTimeout, ref.ID, timeout)
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// accountVisible records the drive's newly visible days, each
// (drive, day) cell exactly once, up to the given horizon. Unfetched
// drives have nothing visible to account.
func (st *Store) accountVisible(dc *driveCols, horizon int) {
	dc.mu.Lock()
	fetched, lastDay := dc.fetched, dc.lastDay
	dc.mu.Unlock()
	if !fetched {
		return
	}
	want := int64(min(horizon, lastDay+1))
	for {
		have := dc.visible.Load()
		if want <= have {
			return
		}
		if dc.visible.CompareAndSwap(have, want) {
			st.daysIngested.Add(want - have)
			return
		}
	}
}

// Snapshot returns an immutable view of the store as of the current
// horizon. The snapshot implements dataset.Source: Days reports the
// horizon, and every drive's series is truncated to it. Snapshots are
// cheap (no copying) and remain valid as the store keeps appending.
func (st *Store) Snapshot() *Snapshot {
	st.mu.RLock()
	horizon := st.horizon
	st.mu.RUnlock()
	st.snapshots.Add(1)
	return &Snapshot{st: st, days: horizon}
}

// Snapshot is an immutable, horizon-bounded view of a Store.
type Snapshot struct {
	st   *Store
	days int
}

var _ dataset.Source = (*Snapshot)(nil)

// Store returns the owning store, letting engines reuse an existing
// store (and its ingested data) instead of re-wrapping the snapshot.
func (s *Snapshot) Store() *Store { return s.st }

// Days implements dataset.Source: the ingest horizon at snapshot time.
func (s *Snapshot) Days() int { return s.days }

// DrivesOf implements dataset.Source. The inventory (including each
// drive's failure day) comes from the upstream source and is fetched
// once per model.
func (s *Snapshot) DrivesOf(m smart.ModelID) []dataset.DriveRef {
	p, err := s.part(m)
	if err != nil {
		return nil
	}
	return p.refs
}

// RefIndex returns the model's drive-ID-to-ref map, built once per
// model and shared by every snapshot of the store. Scoring passes use
// it instead of rebuilding the map per call.
func (s *Snapshot) RefIndex(m smart.ModelID) map[int]dataset.DriveRef {
	p, err := s.part(m)
	if err != nil {
		return nil
	}
	return p.refIndex
}

// part returns the model's partition, tracking and ingesting it up to
// the snapshot horizon on first access.
func (s *Snapshot) part(m smart.ModelID) (*partition, error) {
	s.st.mu.RLock()
	p := s.st.parts[m]
	s.st.mu.RUnlock()
	if p == nil {
		var err error
		if p, err = s.st.createPartition(m); err != nil {
			return nil, err
		}
		if err := s.st.ingest(p, s.st.Horizon()); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Series implements dataset.Source, serving the drive's columns from
// the store truncated to the snapshot horizon. The returned slices
// alias the store's append-only buffers; treat them as read-only (as
// with every other Source).
func (s *Snapshot) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	return s.SeriesCtx(context.Background(), ref)
}

// SeriesCtx is Series under a context: when the drive is not yet in
// the store and the upstream fetch hangs or retries, cancellation (or
// an expired deadline) abandons the lookup promptly instead of
// stalling the caller. An already-dead context fails the read up
// front — even for a cached drive — so cancelled callers never get a
// result they will discard; the context error is never counted as a
// fetch failure.
func (s *Snapshot) SeriesCtx(ctx context.Context, ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	v, err := s.view(ctx, ref)
	if err != nil {
		return nil, 0, err
	}
	var out map[smart.Feature][]float64
	if v.sf != nil {
		out = make(map[smart.Feature][]float64, len(v.sf.feats))
		for fi, ft := range v.sf.feats {
			out[ft] = v.spillCol(fi)
		}
		return out, v.lastDay, nil
	}
	out = make(map[smart.Feature][]float64, len(v.cols))
	for ft, col := range v.cols {
		if out[ft], err = v.memCol(ft, col); err != nil {
			return nil, 0, err
		}
	}
	return out, v.lastDay, nil
}

// Columns is SeriesCtx without the map: it sets dst[i] to the drive's
// feats[i] column truncated to the snapshot horizon, or nil when the
// drive does not report that feature, and returns the drive's last
// visible day. dst must have len(feats) entries. The read is the one
// SeriesCtx makes — same context handling, fetch, visibility accounting
// and spill fallback — and the slices alias the store the same way, so
// a scoring pass that needs a few columns per drive allocates nothing
// per drive.
func (s *Snapshot) Columns(ctx context.Context, ref dataset.DriveRef, feats []smart.Feature, dst [][]float64) (int, error) {
	if len(dst) != len(feats) {
		return 0, fmt.Errorf("store: %d destination columns for %d features", len(dst), len(feats))
	}
	v, err := s.view(ctx, ref)
	if err != nil {
		return 0, err
	}
	for i, ft := range feats {
		if dst[i], err = v.col(ft); err != nil {
			return 0, err
		}
	}
	return v.lastDay, nil
}

// driveView is one drive's columns as a snapshot sees them: the
// in-memory map, or the drive's cells in the partition's spill file.
type driveView struct {
	id      int
	lastDay int                         // truncated to the snapshot horizon
	cols    map[smart.Feature][]float64 // in-memory columns; nil when sf serves
	sf      *spillFile
	base    int64 // sf: the drive's first cell
}

// view resolves ref for one read at the snapshot horizon. It fetches
// the drive when its partition was tracked after the last append,
// accounts the newly visible days, and falls back to the spill file
// when the partition is disk-backed or a concurrent Spill released the
// columns (sp is published before the release, so the file then serves
// the drive).
func (s *Snapshot) view(ctx context.Context, ref dataset.DriveRef) (driveView, error) {
	if err := ctx.Err(); err != nil {
		return driveView{}, fmt.Errorf("store: series drive %d (model %v): %w", ref.ID, ref.Model, err)
	}
	p, err := s.part(ref.Model)
	if err != nil {
		return driveView{}, err
	}
	if dc := p.byID[ref.ID]; dc != nil {
		// Idempotent: serves from the store after the first fetch (the
		// fetch only happens here when the partition was tracked after
		// the last append).
		if err := s.st.fetchDrive(ctx, ref, dc); err != nil {
			return driveView{}, err
		}
		s.st.accountVisible(dc, s.days)
		dc.mu.Lock()
		cols, lastDay := dc.cols, dc.lastDay
		dc.mu.Unlock()
		if cols != nil {
			lastDay = min(lastDay, s.days-1)
			if lastDay < 0 {
				return driveView{}, fmt.Errorf("store: drive %d has no days within horizon %d", ref.ID, s.days)
			}
			return driveView{id: ref.ID, lastDay: lastDay, cols: cols}, nil
		}
	}
	sf := p.sp.Load()
	di, ok := p.idxByID[ref.ID]
	if sf == nil || !ok {
		return driveView{}, fmt.Errorf("store: model %v has no drive %d", ref.Model, ref.ID)
	}
	base := sf.offs[di]
	lastDay := min(int(sf.offs[di+1]-base)-1, s.days-1)
	if lastDay < 0 {
		return driveView{}, fmt.Errorf("store: drive %d: spilled drive has no days within horizon %d", ref.ID, s.days)
	}
	return driveView{id: ref.ID, lastDay: lastDay, sf: sf, base: base}, nil
}

// col returns the drive's column for ft truncated to lastDay+1 days
// (aliasing the store), or nil when the drive does not report ft.
func (v *driveView) col(ft smart.Feature) ([]float64, error) {
	if v.sf != nil {
		fi, ok := v.sf.index[ft]
		if !ok {
			return nil, nil
		}
		return v.spillCol(fi), nil
	}
	col, ok := v.cols[ft]
	if !ok {
		return nil, nil
	}
	return v.memCol(ft, col)
}

// spillCol returns the drive's cells of the spill file's feature fi.
func (v *driveView) spillCol(fi int) []float64 {
	lo := int64(fi)*v.sf.total + v.base
	hi := lo + int64(v.lastDay+1)
	return v.sf.blob[lo:hi:hi]
}

// memCol truncates the drive's in-memory column for ft.
func (v *driveView) memCol(ft smart.Feature, col []float64) ([]float64, error) {
	n := v.lastDay + 1
	if len(col) < n {
		return nil, fmt.Errorf("store: drive %d feature %v has %d days, horizon needs %d", v.id, ft, len(col), n)
	}
	return col[:n:n], nil
}

// Spill writes every tracked, fully ingested partition to
// Options.SpillDir and switches it to serve from the file, releasing
// the in-memory columns. Partitions already disk-backed are skipped.
// Snapshots taken before the spill stay valid throughout: the file is
// published before the columns are released, and the data is
// bit-identical. After a successful Spill the store's resident series
// memory is bounded by the page cache, not the fleet size.
func (st *Store) Spill() error {
	dir := st.opts.SpillDir
	if dir == "" {
		return errors.New("store: Spill requires Options.SpillDir")
	}
	st.mu.RLock()
	parts := make(map[smart.ModelID]*partition, len(st.parts))
	for m, p := range st.parts {
		parts[m] = p
	}
	st.mu.RUnlock()
	for m, p := range parts {
		if p.sp.Load() != nil || len(p.refs) == 0 {
			continue
		}
		if err := st.fetchPartition(context.Background(), p); err != nil {
			return err
		}
		nDays := make([]int, len(p.drives))
		for i, dc := range p.drives {
			nDays[i] = dc.lastDay + 1
		}
		feats := sortedFeatures(p.drives[0].cols)
		path := SpillPath(dir, m)
		err := writeSpillFile(path, m, st.src.Days(), p.refs, feats, nDays, st.opts.Workers,
			func(i int) (map[smart.Feature][]float64, error) { return p.drives[i].cols, nil })
		if err != nil {
			return err
		}
		sf, _, err := openSpill(path, m)
		if err != nil {
			return err
		}
		// Publish the file first, then release the columns: a reader
		// that misses the columns is guaranteed to find the file.
		p.sp.Store(sf)
		for _, dc := range p.drives {
			dc.mu.Lock()
			dc.cols = nil
			dc.mu.Unlock()
		}
	}
	return nil
}

// Close releases the memory mappings of spill-backed partitions. The
// store and any outstanding snapshots must not be used afterwards.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	var first error
	for _, p := range st.parts {
		if sf := p.sp.Swap(nil); sf != nil {
			if err := sf.close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// DayColumns returns one scoring matrix for the given day: the model's
// features in canonical order, one column per feature holding that
// day's value for every drive alive on it, and the matching drive refs
// (a subset of DrivesOf in inventory order). When the partition is
// backed by a single-day spill file the columns alias the mapped blob
// directly — scoring a day-partitioned fleet costs zero copies.
func (s *Snapshot) DayColumns(m smart.ModelID, day int) ([]smart.Feature, [][]float64, []dataset.DriveRef, error) {
	if day < 0 || day >= s.days {
		return nil, nil, nil, fmt.Errorf("store: day %d outside horizon %d", day, s.days)
	}
	p, err := s.part(m)
	if err != nil {
		return nil, nil, nil, err
	}
	if sf := p.sp.Load(); sf != nil {
		if day == 0 && sf.total == int64(len(p.refs)) {
			// Every drive spans exactly one day: each feature column of
			// the blob is the scoring column, in inventory order.
			cols := make([][]float64, len(sf.feats))
			for fi := range sf.feats {
				cols[fi] = sf.column(fi)
			}
			return sf.feats, cols, p.refs, nil
		}
		var alive []dataset.DriveRef
		var idxs []int
		for i, r := range p.refs {
			if sf.offs[i+1]-sf.offs[i] > int64(day) {
				alive = append(alive, r)
				idxs = append(idxs, i)
			}
		}
		cols := make([][]float64, len(sf.feats))
		for fi := range sf.feats {
			col := sf.column(fi)
			out := make([]float64, len(idxs))
			for j, i := range idxs {
				out[j] = col[sf.offs[i]+int64(day)]
			}
			cols[fi] = out
		}
		return sf.feats, cols, alive, nil
	}
	if err := s.st.fetchPartition(context.Background(), p); err != nil {
		return nil, nil, nil, err
	}
	if len(p.drives) == 0 {
		return nil, nil, nil, nil
	}
	p.drives[0].mu.Lock()
	feats := sortedFeatures(p.drives[0].cols)
	p.drives[0].mu.Unlock()
	var alive []dataset.DriveRef
	var idxs []int
	for i, dc := range p.drives {
		if dc.lastDay >= day {
			alive = append(alive, p.refs[i])
			idxs = append(idxs, i)
		}
	}
	cols := make([][]float64, len(feats))
	for fi, ft := range feats {
		out := make([]float64, len(idxs))
		for j, i := range idxs {
			col := p.drives[i].cols[ft]
			if day >= len(col) {
				return nil, nil, nil, fmt.Errorf("store: drive %d feature %v has %d days, day %d requested", p.refs[i].ID, ft, len(col), day)
			}
			out[j] = col[day]
		}
		cols[fi] = out
	}
	return feats, cols, alive, nil
}
