// Package serve is the online prediction service over the snapshot
// registry: a long-running daemon that decodes ModelSnapshots once,
// answers per-drive and batch scoring requests over HTTP/JSON, admits
// new fleet days into the store, and hot-swaps to newly promoted
// snapshot versions atomically with zero dropped requests.
//
// Every scoring path ends in the compiled flat kernel: a single-drive
// request featurizes its row into pooled scratch and scores it with
// one Scorer.ScoreBatch call, so the steady-state per-request hot
// path performs no allocations; batch requests bucket their rows by
// wear group into one call per group; fleet requests run the pooled
// whole-pass engine path.
//
// Hot swap: each artifact's active snapshot lives behind one atomic
// pointer. A reload builds the new serving state (snapshot decode,
// scorer) off to the side and stores the pointer. Requests that
// captured the old pointer finish on the old snapshot and echo its
// (version, config-hash); later requests load the new one, so no
// request is dropped or mis-versioned by a swap. A superseded state
// owns no goroutine or queue and needs no teardown: the garbage
// collector frees it after its last request returns.
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/smart"
	"repro/internal/store"
)

// Defaults for Options fields left zero.
const (
	DefaultMaxBatchRequest = 4096
	DefaultMaxBodyBytes    = 8 << 20
	DefaultMaxSeriesDays   = 4096

	DefaultMaxInflightSingle = 256
	DefaultMaxInflightBatch  = 16
	DefaultMaxInflightFleet  = 2
	DefaultMaxInflightIngest = 1
	DefaultDeadline          = 2 * time.Second
	DefaultMaxDeadline       = 30 * time.Second
	DefaultBreakerThreshold  = 5
	DefaultBreakerCooldown   = 2 * time.Second
	DefaultSmallBodyBytes    = 4096
)

// Chaos-harness injection sites on the serving request path. Tests
// arm them via faults.ArmOp; in production they compile down to one
// atomic load each.
var (
	// SiteStoreSeries fires before every store-backed series fetch —
	// arming it simulates a flaky or hung store without touching the
	// store's cache state.
	SiteStoreSeries = faults.RegisterOpSite("serve-store-series")
	// SiteRegistryLoad fires before a reload decodes a new snapshot
	// version — arming it simulates registry corruption or an
	// unreadable artifact mid-watch.
	SiteRegistryLoad = faults.RegisterOpSite("serve-registry-load")
	// SiteSlowWrite fires after admission, before the handler runs —
	// arming it with a delay simulates slow request consumers holding
	// their admission slots.
	SiteSlowWrite = faults.RegisterOpSite("serve-slow-write")
)

// Options configures a Server.
type Options struct {
	// Registry is the snapshot registry to serve from (required).
	Registry *core.Registry
	// Artifacts are the registry artifact names to load and serve;
	// each must have at least one saved version (required).
	Artifacts []string
	// Store, when non-nil, enables store-backed scoring (requests that
	// name a drive instead of inlining its series), the fleet scoring
	// endpoint, and ingest admission.
	Store *store.Store
	// Workers bounds fleet-scoring parallelism (0 = GOMAXPROCS).
	Workers int
	// MaxBatchRequest caps the number of drives in one batch request
	// (default 4096); larger requests get 413.
	MaxBatchRequest int
	// MaxBodyBytes caps a request body (default 8 MiB).
	MaxBodyBytes int64
	// MaxSeriesDays caps the length of an inline series (default
	// 4096); longer uploads get 413.
	MaxSeriesDays int

	// MaxInflightSingle caps concurrent single-drive scoring requests
	// (default 256). Each path's wait queue holds 4× its cap; beyond
	// that, requests are shed with 429.
	MaxInflightSingle int
	// MaxInflightBatch caps concurrent batch requests (default 16).
	MaxInflightBatch int
	// MaxInflightFleet caps concurrent fleet passes (default 2).
	MaxInflightFleet int
	// MaxInflightIngest caps concurrent ingest admissions (default 1:
	// the store serializes appends anyway).
	MaxInflightIngest int

	// DefaultDeadline is the per-request deadline applied when the
	// client sends no X-Deadline-Ms header (default 2s).
	DefaultDeadline time.Duration
	// MaxDeadline caps a client-requested deadline (default 30s).
	MaxDeadline time.Duration

	// BreakerThreshold is the consecutive store-failure count that
	// trips the store circuit breaker (default 5).
	BreakerThreshold int
	// BreakerCooldown is the breaker's base open interval before a
	// half-open probe (default 2s).
	BreakerCooldown time.Duration
	// BreakerSeed seeds the breaker's deterministic cooldown jitter.
	BreakerSeed int64

	// DegradedOK makes /readyz report 200 even while degraded
	// (breaker open or registry stale) — for fleets that prefer a
	// brownout replica in rotation over losing capacity.
	DegradedOK bool

	// MaxSmallBodyBytes caps bodies on the fixed-shape POST endpoints
	// (/v1/score/fleet, /v1/ingest), whose valid payloads are tens of
	// bytes (default 4096). Score and batch bodies carry inline series
	// and use MaxBodyBytes.
	MaxSmallBodyBytes int64
}

func (o Options) withDefaults() Options {
	if o.MaxBatchRequest <= 0 {
		o.MaxBatchRequest = DefaultMaxBatchRequest
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if o.MaxSeriesDays <= 0 {
		o.MaxSeriesDays = DefaultMaxSeriesDays
	}
	if o.MaxInflightSingle <= 0 {
		o.MaxInflightSingle = DefaultMaxInflightSingle
	}
	if o.MaxInflightBatch <= 0 {
		o.MaxInflightBatch = DefaultMaxInflightBatch
	}
	if o.MaxInflightFleet <= 0 {
		o.MaxInflightFleet = DefaultMaxInflightFleet
	}
	if o.MaxInflightIngest <= 0 {
		o.MaxInflightIngest = DefaultMaxInflightIngest
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = DefaultDeadline
	}
	if o.MaxDeadline <= 0 {
		o.MaxDeadline = DefaultMaxDeadline
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = DefaultBreakerThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	if o.MaxSmallBodyBytes <= 0 {
		o.MaxSmallBodyBytes = DefaultSmallBodyBytes
	}
	return o
}

// Stats is a snapshot of the server's request counters.
type Stats struct {
	Requests int64 `json:"requests"` // scoring requests answered (all paths)
	Errors   int64 `json:"errors"`   // requests answered with an error status

	// Coalesced and Flushes both count single-drive rows scored: each
	// row is one kernel call. AgeFlushes is always 0. The three fields
	// stay for existing /v1/stats readers.
	Coalesced  int64 `json:"coalesced"`
	Flushes    int64 `json:"flushes"`
	AgeFlushes int64 `json:"age_flushes"`

	Swaps   int64 `json:"swaps"`   // snapshot hot swaps performed
	Ingests int64 `json:"ingests"` // ingest admissions accepted

	Accepted         int64  `json:"accepted"`          // requests admitted past the gates
	Shed             int64  `json:"shed"`              // requests rejected 429 by a full admission queue
	DeadlineExceeded int64  `json:"deadline_exceeded"` // requests that ran out of deadline (503)
	Degraded         int64  `json:"degraded"`          // responses served degraded (breaker open)
	BreakerTrips     int64  `json:"breaker_trips"`     // store circuit-breaker open transitions
	BreakerState     string `json:"breaker_state"`     // "closed", "open", or "half-open"
	ReloadFailures   int64  `json:"reload_failures"`   // consecutive registry reload failures
}

// Server is the online prediction service. Create with New, expose
// with Handler, and stop with Close.
type Server struct {
	opts  Options
	names []string // sorted artifact names
	arts  map[string]*artifact

	reloadMu sync.Mutex // serializes Reload

	requests atomic.Int64
	errors   atomic.Int64
	singles  atomic.Int64 // single-drive rows scored
	swaps    atomic.Int64
	ingests  atomic.Int64

	accepted         atomic.Int64
	shed             atomic.Int64
	deadlineExceeded atomic.Int64
	degraded         atomic.Int64

	gates [numPathClasses]*gate
	brk   *breaker

	// reloadFails counts consecutive Reload failures (reset on any
	// success); lastReloadErr keeps the most recent failure's message
	// for /readyz. Together they surface registry staleness: the
	// daemon keeps serving the last good snapshots while the watcher
	// retries.
	reloadFails   atomic.Int64
	lastReloadErr atomic.Pointer[string]

	watchStop chan struct{}
	watchDone chan struct{}
	closeOnce sync.Once
}

// artifact is one served registry artifact; cur is the active
// serving state, swapped atomically on reload.
type artifact struct {
	name string
	cur  atomic.Pointer[serving]
}

// serving is the immutable runtime state of one loaded snapshot
// version: the decoded scorer plus per-wear-group routing metadata.
// It is replaced wholesale on hot swap, never mutated.
type serving struct {
	name      string
	version   int
	hash      string
	model     smart.ModelID
	snap      *engine.ModelSnapshot
	scorer    *engine.Scorer
	windows   []int
	maxWindow int
	groups    []*groupRT
	// reads lists the columns a store-backed drive is read for: MWI_N,
	// then every group's features not yet listed.
	reads []smart.Feature

	// fleetBuf recycles the fleet-endpoint scoring scratch; fleetMu
	// serializes its use (fleet scoring is a whole-pass operation, so
	// serializing it per snapshot version costs nothing).
	fleetMu  sync.Mutex
	fleetBuf engine.ScoreBuf
}

// groupRT is one wear group's serving state.
type groupRT struct {
	index     int
	feats     []smart.Feature
	idx       []int // feats' seriesTable places
	width     int   // model-input columns
	threshold float64
}

// New loads the latest version of every configured artifact and
// returns a ready server. The daemon owns the registry handle; the
// store, when provided, may be shared with an ingest pipeline.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.Registry == nil {
		return nil, errors.New("serve: Options.Registry is required")
	}
	if len(opts.Artifacts) == 0 {
		return nil, errors.New("serve: Options.Artifacts is empty")
	}
	s := &Server{opts: opts, arts: make(map[string]*artifact)}
	caps := [numPathClasses]int{
		pathSingle: opts.MaxInflightSingle,
		pathBatch:  opts.MaxInflightBatch,
		pathFleet:  opts.MaxInflightFleet,
		pathIngest: opts.MaxInflightIngest,
	}
	for pc, capacity := range caps {
		s.gates[pc] = newGate(capacity, 4*capacity)
	}
	s.brk = newBreaker(breakerConfig{
		threshold: opts.BreakerThreshold,
		cooldown:  opts.BreakerCooldown,
		seed:      opts.BreakerSeed,
	})
	for _, name := range opts.Artifacts {
		if _, dup := s.arts[name]; dup {
			return nil, fmt.Errorf("serve: duplicate artifact %q", name)
		}
		version, err := opts.Registry.LatestVersion(name)
		if err != nil {
			return nil, fmt.Errorf("serve: artifact %q: %w", name, err)
		}
		sv, err := s.newServing(name, version)
		if err != nil {
			return nil, err
		}
		art := &artifact{name: name}
		art.cur.Store(sv)
		s.arts[name] = art
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	return s, nil
}

// newServing loads and decodes one snapshot version into runtime
// serving state.
func (s *Server) newServing(name string, version int) (*serving, error) {
	if err := faults.Op(context.Background(), SiteRegistryLoad); err != nil {
		return nil, fmt.Errorf("serve: artifact %q v%d: %w", name, version, err)
	}
	snap, err := engine.LoadSnapshot(s.opts.Registry, name, version)
	if err != nil {
		return nil, fmt.Errorf("serve: artifact %q v%d: %w", name, version, err)
	}
	scorer, err := engine.NewScorer(snap, s.opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("serve: artifact %q v%d: %w", name, version, err)
	}
	sv := &serving{
		name:      name,
		version:   version,
		hash:      snap.ConfigHash,
		model:     snap.Model,
		snap:      snap,
		scorer:    scorer,
		windows:   scorer.Windows(),
		maxWindow: scorer.MaxWindow(),
		reads:     []smart.Feature{engine.MWIFeature},
	}
	for g := 0; g < scorer.NumGroups(); g++ {
		rt := &groupRT{
			index:     g,
			feats:     scorer.GroupFeatures(g),
			width:     scorer.GroupInputWidth(g),
			threshold: scorer.GroupThreshold(g),
		}
		for _, ft := range rt.feats {
			rt.idx = append(rt.idx, ft.Index())
			if !slices.Contains(sv.reads, ft) {
				sv.reads = append(sv.reads, ft)
			}
		}
		sv.groups = append(sv.groups, rt)
	}
	return sv, nil
}

// Reload checks every artifact for a newer registry version and
// atomically swaps any that advanced. It returns the names of the
// artifacts that were swapped. Safe to call concurrently with
// request traffic; concurrent Reloads serialize.
//
// A failed reload never disturbs the active serving state: the last
// good snapshots keep answering traffic, the consecutive-failure
// count and last error surface through Stats and /readyz, and the
// next successful reload clears both.
func (s *Server) Reload() ([]string, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	swapped, err := s.reloadLocked()
	if err != nil {
		msg := err.Error()
		s.reloadFails.Add(1)
		s.lastReloadErr.Store(&msg)
	} else {
		s.reloadFails.Store(0)
		s.lastReloadErr.Store(nil)
	}
	return swapped, err
}

func (s *Server) reloadLocked() ([]string, error) {
	var swapped []string
	for _, name := range s.names {
		art := s.arts[name]
		version, err := s.opts.Registry.LatestVersion(name)
		if err != nil {
			return swapped, fmt.Errorf("serve: reload %q: %w", name, err)
		}
		cur := art.cur.Load()
		if cur != nil && cur.version == version {
			continue
		}
		sv, err := s.newServing(name, version)
		if err != nil {
			return swapped, err
		}
		art.cur.Store(sv)
		s.swaps.Add(1)
		swapped = append(swapped, name)
	}
	return swapped, nil
}

// Watch polls the registry for new versions every interval until
// Close, hot-swapping as they appear — this is how controller
// promotions go live without a restart. Reload errors are reported
// through onErr (which may be nil) and do not stop the watcher.
func (s *Server) Watch(interval time.Duration, onErr func(error)) {
	if s.watchStop != nil {
		return
	}
	s.watchStop = make(chan struct{})
	s.watchDone = make(chan struct{})
	go func() {
		defer close(s.watchDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.watchStop:
				return
			case <-t.C:
				if _, err := s.Reload(); err != nil && onErr != nil {
					onErr(err)
				}
			}
		}
	}()
}

// Close stops the registry watcher, if Watch started one. Requests
// still in flight are unaffected: they hold no server resources that
// Close releases. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.watchStop != nil {
			close(s.watchStop)
			<-s.watchDone
		}
	})
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	state, trips := s.brk.snapshot()
	singles := s.singles.Load()
	return Stats{
		Requests:  s.requests.Load(),
		Errors:    s.errors.Load(),
		Coalesced: singles,
		Flushes:   singles,
		Swaps:     s.swaps.Load(),
		Ingests:   s.ingests.Load(),

		Accepted:         s.accepted.Load(),
		Shed:             s.shed.Load(),
		DeadlineExceeded: s.deadlineExceeded.Load(),
		Degraded:         s.degraded.Load(),
		BreakerTrips:     trips,
		BreakerState:     state.String(),
		ReloadFailures:   s.reloadFails.Load(),
	}
}

// registryStale reports whether the most recent reload attempt failed
// — the served snapshots may lag the registry until the watcher's
// next successful pass.
func (s *Server) registryStale() bool { return s.reloadFails.Load() > 0 }

// degradedNow reports whether the server is in a brownout: store
// breaker not closed, or serving stale snapshots past a failed
// reload.
func (s *Server) degradedNow() bool {
	state, _ := s.brk.snapshot()
	return state != breakerClosed || s.registryStale()
}

// artifactByName resolves a request's model name.
func (s *Server) artifactByName(name string) (*artifact, bool) {
	art, ok := s.arts[name]
	return art, ok
}
