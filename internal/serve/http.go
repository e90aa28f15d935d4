package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/faults"
	"repro/internal/smart"
)

// Machine-readable error kinds carried in the "code" field of error
// bodies, so load generators and clients can tell overload rejections
// (retry later, elsewhere) from genuine failures.
const (
	kindShed             = "shed"              // 429: admission queue full
	kindDeadlineExceeded = "deadline_exceeded" // 503: request deadline ran out
	kindStoreUnavailable = "store_unavailable" // 503: store breaker open or fetch failed
	kindRegistryDown     = "registry_unavailable"
	kindBadRequest       = "bad_request"
)

// reqError is a request failure the daemon classified: it maps to an
// HTTP status, a structured {"error", "code"} body, and by
// construction leaves no trace in daemon state. kind is the
// machine-readable code; empty means kindBadRequest.
type reqError struct {
	code int
	kind string
	msg  string
}

func (e *reqError) Error() string { return e.msg }

// ScoreRequest is the body of POST /v1/score: one drive-day to score.
// Either Series carries the drive's telemetry inline (each column the
// same length; the last day is scored, and at least the snapshot's
// maximum feature window of history before it makes generated
// statistics exact), or DriveID names a drive already in the store
// (Day picks the scored day, default its last observed day).
type ScoreRequest struct {
	// Model is the registry artifact name to score with.
	Model string `json:"model"`
	// DriveID selects a store-backed drive (with optional Day).
	DriveID *int `json:"drive_id,omitempty"`
	// Day is the scored day for store-backed requests.
	Day *int `json:"day,omitempty"`
	// MWI overrides the wear index used for group routing; default is
	// the MWI_N column at the scored day.
	MWI *float64 `json:"mwi,omitempty"`
	// Series is the inline telemetry, keyed by feature name (e.g.
	// "UCE_R", "MWI_N"). A null inside a column is a missing reading:
	// the daemon scores it as NaN, which each tree routes by its
	// missing-value direction, as the engine treats a missing store
	// reading. (encoding/json cannot marshal NaN, so a Go client sends
	// a missing reading by writing null in the body itself.)
	Series map[string][]float64 `json:"series,omitempty"`
}

// ScoreResponse is one scored drive-day. Version and ConfigHash
// identify the exact snapshot that produced the probability — during
// a hot swap concurrent responses may carry either version, but every
// response's pair is internally consistent.
type ScoreResponse struct {
	Model      string  `json:"model"`
	Version    int     `json:"version"`
	ConfigHash string  `json:"config_hash"`
	DriveID    int     `json:"drive_id,omitempty"`
	Day        int     `json:"day"`
	Group      int     `json:"group"`
	Prob       float64 `json:"prob"`
	Threshold  float64 `json:"threshold"`
	Alarm      bool    `json:"alarm"`
	// Degraded marks a response produced while the daemon is in a
	// brownout (store breaker open or registry stale): the score is
	// exact for the data it saw, but store-backed context may be
	// unavailable or the snapshot may lag the registry.
	Degraded bool `json:"degraded,omitempty"`
}

// BatchRequest is the body of POST /v1/score/batch: many drives
// scored in one call.
type BatchRequest struct {
	Model  string       `json:"model"`
	Drives []BatchDrive `json:"drives"`
}

// BatchDrive is one drive of a batch request; fields mirror
// ScoreRequest minus the artifact name.
type BatchDrive struct {
	DriveID *int                 `json:"drive_id,omitempty"`
	Day     *int                 `json:"day,omitempty"`
	MWI     *float64             `json:"mwi,omitempty"`
	Series  map[string][]float64 `json:"series,omitempty"`
}

// BatchResponse returns one result per requested drive, in order.
type BatchResponse struct {
	Model      string          `json:"model"`
	Version    int             `json:"version"`
	ConfigHash string          `json:"config_hash"`
	Degraded   bool            `json:"degraded,omitempty"`
	Results    []ScoreResponse `json:"results"`
}

// FleetRequest is the body of POST /v1/score/fleet: score every drive
// of the artifact's model on one store day through the pooled
// whole-pass engine path.
type FleetRequest struct {
	Model string `json:"model"`
	Day   int    `json:"day"`
}

// FleetResponse summarizes a fleet pass.
type FleetResponse struct {
	Model      string  `json:"model"`
	Version    int     `json:"version"`
	ConfigHash string  `json:"config_hash"`
	Day        int     `json:"day"`
	Drives     int     `json:"drives"`
	Alarms     int     `json:"alarms"`
	MeanProb   float64 `json:"mean_prob"`
	Degraded   bool    `json:"degraded,omitempty"`
}

// IngestRequest is the body of POST /v1/ingest: admit upstream fleet
// telemetry through the given day into the store, making it visible
// to store-backed scoring.
type IngestRequest struct {
	Day int `json:"day"`
}

// IngestResponse reports the store horizon after an admission.
type IngestResponse struct {
	Horizon       int   `json:"horizon"`
	DaysIngested  int64 `json:"days_ingested"`
	SeriesFetches int64 `json:"series_fetches"`
}

// ModelInfo describes one served artifact (GET /v1/models).
type ModelInfo struct {
	Name           string `json:"name"`
	Version        int    `json:"version"`
	ConfigHash     string `json:"config_hash"`
	DriveModel     string `json:"drive_model"`
	TrainedThrough int    `json:"trained_through"`
	Windows        []int  `json:"windows"`
	// Stale marks an artifact served past a failed registry reload:
	// the listed version is the last good one and may lag the
	// registry's latest.
	Stale  bool        `json:"stale,omitempty"`
	Groups []GroupInfo `json:"groups"`
}

// GroupInfo describes one wear group of a served artifact.
type GroupInfo struct {
	MWIBelow   float64  `json:"mwi_below,omitempty"`
	MWIAtLeast float64  `json:"mwi_at_least,omitempty"`
	Threshold  float64  `json:"threshold"`
	Features   []string `json:"features"`
}

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("POST /v1/score", s.overload(pathSingle, s.handleScore))
	mux.HandleFunc("POST /v1/score/batch", s.overload(pathBatch, s.handleBatch))
	mux.HandleFunc("POST /v1/score/fleet", s.overload(pathFleet, s.handleFleet))
	mux.HandleFunc("POST /v1/ingest", s.overload(pathIngest, s.handleIngest))
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	return mux
}

// ReadyResponse is the body of GET /readyz: whether the daemon wants
// traffic, and why not if it doesn't. Liveness (/healthz) stays dumb
// — a degraded daemon is alive; readiness is the load balancer's
// signal.
type ReadyResponse struct {
	Ready           bool   `json:"ready"`
	Degraded        bool   `json:"degraded"`
	Breaker         string `json:"breaker"`
	BreakerTrips    int64  `json:"breaker_trips"`
	RegistryStale   bool   `json:"registry_stale"`
	ReloadFailures  int64  `json:"reload_failures"`
	LastReloadError string `json:"last_reload_error,omitempty"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	state, trips := s.brk.snapshot()
	degraded := state != breakerClosed || s.registryStale()
	resp := ReadyResponse{
		Ready:          !degraded || s.opts.DegradedOK,
		Degraded:       degraded,
		Breaker:        state.String(),
		BreakerTrips:   trips,
		RegistryStale:  s.registryStale(),
		ReloadFailures: s.reloadFails.Load(),
	}
	if msg := s.lastReloadErr.Load(); msg != nil {
		resp.LastReloadError = *msg
	}
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeErrKind(w, code, kindBadRequest, format, args...)
}

func (s *Server) writeErrKind(w http.ResponseWriter, code int, kind string, format string, args ...any) {
	s.errors.Add(1)
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...), "code": kind})
}

// fail maps an error to its HTTP status: reqError carries its own
// status and kind, a blown request deadline is a 503
// deadline_exceeded, everything else is a 500.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var re *reqError
	if errors.As(err, &re) {
		kind := re.kind
		if kind == "" {
			kind = kindBadRequest
		}
		if kind == kindDeadlineExceeded {
			s.deadlineExceeded.Add(1)
		}
		s.writeErrKind(w, re.code, kind, "%s", re.msg)
		return
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.deadlineExceeded.Add(1)
		s.writeErrKind(w, http.StatusServiceUnavailable, kindDeadlineExceeded, "%v", err)
		return
	}
	s.writeErr(w, http.StatusInternalServerError, "%v", err)
}

// decodeBody decodes a JSON request body strictly: unknown fields,
// trailing garbage, and bodies over the per-path limit are client
// errors.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &reqError{code: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("body exceeds %d bytes", tooBig.Limit)}
		}
		return &reqError{code: http.StatusBadRequest, msg: fmt.Sprintf("bad request body: %v", err)}
	}
	// Token (not More) for the trailing check: More swallows read
	// errors, which would let an over-limit body whose excess is
	// trailing bytes slip past the cap.
	if _, err := dec.Token(); err != io.EOF {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &reqError{code: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("body exceeds %d bytes", tooBig.Limit)}
		}
		return &reqError{code: http.StatusBadRequest, msg: "trailing data after JSON body"}
	}
	return nil
}

// requestDeadline resolves a request's deadline: the optional
// X-Deadline-Ms header (capped at Options.MaxDeadline) or the server
// default. A malformed header is a 400.
func (s *Server) requestDeadline(r *http.Request) (time.Duration, error) {
	h := r.Header.Get("X-Deadline-Ms")
	if h == "" {
		return s.opts.DefaultDeadline, nil
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 {
		return 0, &reqError{code: http.StatusBadRequest, msg: fmt.Sprintf("bad X-Deadline-Ms %q: want a positive integer", h)}
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.opts.MaxDeadline {
		d = s.opts.MaxDeadline
	}
	return d, nil
}

// overload wraps a handler with the path's admission gate and the
// request deadline. A full wait queue sheds with 429 + Retry-After; a
// deadline that expires while queued is a 503 deadline_exceeded.
// Admitted requests run under a context that featurization and store
// fetches observe, so a hung dependency cancels instead of wedging
// the slot forever.
func (s *Server) overload(pc pathClass, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		deadline, err := s.requestDeadline(r)
		if err != nil {
			s.fail(w, err)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), deadline)
		defer cancel()
		if err := s.gates[pc].acquire(ctx); err != nil {
			if errors.Is(err, errShed) {
				s.shed.Add(1)
				w.Header().Set("Retry-After", "1")
				s.writeErrKind(w, http.StatusTooManyRequests, kindShed, "%s path overloaded: admission queue full", pc)
				return
			}
			s.deadlineExceeded.Add(1)
			s.writeErrKind(w, http.StatusServiceUnavailable, kindDeadlineExceeded, "%s path: deadline expired in admission queue", pc)
			return
		}
		defer s.gates[pc].release()
		s.accepted.Add(1)
		if err := faults.Op(ctx, SiteSlowWrite); err != nil {
			s.fail(w, err)
			return
		}
		h(w, r.WithContext(ctx))
	}
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	stale := s.registryStale()
	out := make([]ModelInfo, 0, len(s.names))
	for _, name := range s.names {
		sv := s.arts[name].cur.Load()
		mi := ModelInfo{
			Name:           name,
			Version:        sv.version,
			ConfigHash:     sv.hash,
			DriveModel:     sv.model.String(),
			TrainedThrough: sv.snap.TrainedThrough,
			Windows:        sv.windows,
			Stale:          stale,
		}
		for _, g := range sv.groups {
			below, atLeast := sv.scorer.GroupMWIBounds(g.index)
			names := make([]string, len(g.feats))
			for i, ft := range g.feats {
				names[i] = ft.String()
			}
			mi.Groups = append(mi.Groups, GroupInfo{
				MWIBelow: below, MWIAtLeast: atLeast,
				Threshold: g.threshold, Features: names,
			})
		}
		out = append(out, mi)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	b, err := decodeSeries(w, r, false, s.opts.MaxBodyBytes, s.opts.MaxBatchRequest)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer b.release()
	resp, err := s.scoreOne(r.Context(), b, &b.drives[0])
	if err != nil {
		s.fail(w, err)
		return
	}
	if resp.Degraded {
		s.degraded.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

// scoreOne scores a single drive-day of a decoded score body on the
// artifact's active snapshot, captured once: a concurrent hot swap
// cannot change the (version, config-hash) the response reports.
func (s *Server) scoreOne(ctx context.Context, b *seriesBody, d *bodyDrive) (ScoreResponse, error) {
	art, ok := s.artifactByName(b.model)
	if !ok {
		return ScoreResponse{}, &reqError{code: http.StatusNotFound, msg: fmt.Sprintf("unknown model %q", b.model)}
	}
	return s.scoreOn(ctx, art.cur.Load(), b, d)
}

// scoreOn scores the drive against one captured serving state: the
// row is assembled in pooled scratch and scored by one kernel call.
func (s *Server) scoreOn(ctx context.Context, sv *serving, b *seriesBody, d *bodyDrive) (ScoreResponse, error) {
	tbl, day, driveID, err := s.resolveSeries(ctx, sv, b, d)
	if err != nil {
		return ScoreResponse{}, err
	}
	mwi := routeMWI(tbl, day, d.mwiOverride())
	g := sv.scorer.PickGroup(mwi)
	if g < 0 {
		return ScoreResponse{}, &reqError{code: http.StatusUnprocessableEntity, msg: fmt.Sprintf("no wear group admits MWI %v", mwi)}
	}
	rt := sv.groups[g]
	fs := getScratch(rt.width, len(rt.feats))
	defer putScratch(fs)
	if err := sv.driveRow(rt, tbl, day, fs); err != nil {
		return ScoreResponse{}, err
	}
	if err := sv.scorer.ScoreBatch(g, fs.cols, fs.prob[:]); err != nil {
		return ScoreResponse{}, fmt.Errorf("serve: score group %d: %w", g, err)
	}
	s.singles.Add(1)
	prob := fs.prob[0]
	return ScoreResponse{
		Model: sv.name, Version: sv.version, ConfigHash: sv.hash,
		DriveID: driveID, Day: day, Group: g,
		Prob: prob, Threshold: rt.threshold, Alarm: prob >= rt.threshold,
		Degraded: s.degradedNow(),
	}, nil
}

// resolveSeries fills b's table with the drive's telemetry columns and
// returns it with the scored day: the inline series (scored day = last
// day), or the store's columns of the features the snapshot reads.
//
// The store-backed branch is the breaker-guarded dependency edge:
// with the breaker open it fast-fails 503 store_unavailable without
// touching the store (inline-series requests are unaffected — that is
// the brownout), and every real fetch outcome feeds the breaker.
// Unknown-drive 404s are checked before the breaker is consulted:
// they are client errors, not store health, and must not consume a
// half-open probe slot. Likewise a cancelled or deadline-blown fetch
// is the client's deadline, not the store's failure — it releases the
// probe slot instead of counting against the streak.
func (s *Server) resolveSeries(ctx context.Context, sv *serving, b *seriesBody, d *bodyDrive) (*seriesTable, int, int, error) {
	tbl := &b.tbl
	*tbl = seriesTable{}
	if d.inline {
		if d.hasDriveID {
			return nil, 0, 0, &reqError{code: http.StatusBadRequest, msg: "request has both series and drive_id; send one"}
		}
		n, err := d.checkSeries(s.opts.MaxSeriesDays)
		if err != nil {
			return nil, 0, 0, err
		}
		for _, c := range d.cols {
			tbl[c.feat] = b.column(c)
		}
		day := n - 1
		if d.hasDay {
			if d.day < 0 || d.day >= n {
				return nil, 0, 0, &reqError{code: http.StatusBadRequest, msg: fmt.Sprintf("day %d outside series span %d", d.day, n)}
			}
			day = d.day
		}
		return tbl, day, 0, nil
	}
	if !d.hasDriveID {
		return nil, 0, 0, &reqError{code: http.StatusBadRequest, msg: "request needs series or drive_id"}
	}
	if s.opts.Store == nil {
		return nil, 0, 0, &reqError{code: http.StatusNotImplemented, msg: "store-backed scoring is disabled: no store configured"}
	}
	snap := s.opts.Store.Snapshot()
	ref, ok := snap.RefIndex(sv.model)[d.driveID]
	if !ok {
		return nil, 0, 0, &reqError{code: http.StatusNotFound, msg: fmt.Sprintf("model %v has no drive %d", sv.model, d.driveID)}
	}
	if !s.brk.allow() {
		return nil, 0, 0, &reqError{code: http.StatusServiceUnavailable, kind: kindStoreUnavailable, msg: "store circuit breaker open; retry with inline series"}
	}
	if err := faults.Op(ctx, SiteStoreSeries); err != nil {
		s.brkFetchFailed(err)
		return nil, 0, 0, storeErr(d.driveID, err)
	}
	var view [smart.NumFeatures][]float64
	lastDay, err := snap.Columns(ctx, ref, sv.reads, view[:len(sv.reads)])
	if err != nil {
		s.brkFetchFailed(err)
		return nil, 0, 0, storeErr(d.driveID, err)
	}
	s.brk.success()
	for i, ft := range sv.reads {
		tbl[ft.Index()] = view[i]
	}
	day := lastDay
	if d.hasDay {
		if d.day < 0 || d.day > lastDay {
			return nil, 0, 0, &reqError{code: http.StatusBadRequest, msg: fmt.Sprintf("day %d outside drive %d's observed span [0, %d]", d.day, d.driveID, lastDay)}
		}
		day = d.day
	}
	return tbl, day, d.driveID, nil
}

// brkFetchFailed feeds a failed store fetch to the circuit breaker.
// Cancellation and deadline expiry are the request's deadline, not
// the store's health — the store never answered, for better or worse
// — so they never count toward the failure streak; if the request
// held the half-open probe slot they hand it back so the next
// store-backed request can probe. Everything else is a real failure.
func (s *Server) brkFetchFailed(err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.brk.release()
		return
	}
	s.brk.failure()
}

// storeErr classifies a store fetch failure: a blown deadline is a
// 503 deadline_exceeded, anything else a 503 store_unavailable. Both
// feed the circuit breaker at the call site.
func storeErr(driveID int, err error) error {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return &reqError{code: http.StatusServiceUnavailable, kind: kindDeadlineExceeded, msg: fmt.Sprintf("store series for drive %d: %v", driveID, err)}
	}
	return &reqError{code: http.StatusServiceUnavailable, kind: kindStoreUnavailable, msg: fmt.Sprintf("store series for drive %d: %v", driveID, err)}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	b, err := decodeSeries(w, r, true, s.opts.MaxBodyBytes, s.opts.MaxBatchRequest)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer b.release()
	art, ok := s.artifactByName(b.model)
	if !ok {
		s.writeErr(w, http.StatusNotFound, "unknown model %q", b.model)
		return
	}
	if b.n == 0 {
		s.writeErr(w, http.StatusBadRequest, "batch has no drives")
		return
	}
	if b.n > s.opts.MaxBatchRequest {
		s.writeErr(w, http.StatusRequestEntityTooLarge, "batch of %d drives exceeds limit %d", b.n, s.opts.MaxBatchRequest)
		return
	}
	sv := art.cur.Load()
	resp, err := s.scoreBatchOn(r.Context(), sv, b)
	if err != nil {
		s.fail(w, err)
		return
	}
	if resp.Degraded {
		s.degraded.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

// scoreBatchOn scores a whole batch on one captured serving state:
// rows are bucketed by wear group, each bucket scored in one kernel
// call, results returned in request order. Validation is
// all-or-nothing — any bad drive fails the whole batch before
// anything is scored.
func (s *Server) scoreBatchOn(ctx context.Context, sv *serving, b *seriesBody) (BatchResponse, error) {
	n := b.n
	type placed struct {
		group int
		slot  int // row within the group's bucket
	}
	place := make([]placed, n)
	rows := make([][]float64, n)
	buckets := make([][]int, len(sv.groups)) // group -> request indices
	resp := BatchResponse{Model: sv.name, Version: sv.version, ConfigHash: sv.hash}

	for i := range b.drives[:n] {
		d := &b.drives[i]
		if err := ctx.Err(); err != nil {
			return resp, &reqError{code: http.StatusServiceUnavailable, kind: kindDeadlineExceeded,
				msg: fmt.Sprintf("deadline exceeded after featurizing %d of %d drives", i, n)}
		}
		tbl, day, driveID, err := s.resolveSeries(ctx, sv, b, d)
		if err != nil {
			return resp, &reqError{code: errCode(err), kind: errKind(err), msg: fmt.Sprintf("drive %d of batch: %v", i, err)}
		}
		mwi := routeMWI(tbl, day, d.mwiOverride())
		g := sv.scorer.PickGroup(mwi)
		if g < 0 {
			return resp, &reqError{code: http.StatusUnprocessableEntity, msg: fmt.Sprintf("drive %d of batch: no wear group admits MWI %v", i, mwi)}
		}
		rt := sv.groups[g]
		fs := getScratch(rt.width, len(rt.feats))
		if err := sv.driveRow(rt, tbl, day, fs); err != nil {
			putScratch(fs)
			return resp, &reqError{code: errCode(err), msg: fmt.Sprintf("drive %d of batch: %v", i, err)}
		}
		row := make([]float64, rt.width)
		copy(row, fs.row)
		putScratch(fs)
		rows[i] = row
		place[i] = placed{group: g, slot: len(buckets[g])}
		buckets[g] = append(buckets[g], i)
		resp.Results = append(resp.Results, ScoreResponse{
			Model: sv.name, Version: sv.version, ConfigHash: sv.hash,
			DriveID: driveID, Day: day, Group: g, Threshold: rt.threshold,
		})
	}

	probs := make([][]float64, len(sv.groups))
	for g, idxs := range buckets {
		if len(idxs) == 0 {
			continue
		}
		rt := sv.groups[g]
		cols := make([][]float64, rt.width)
		for c := range cols {
			cols[c] = make([]float64, len(idxs))
		}
		for slot, i := range idxs {
			for c, v := range rows[i] {
				cols[c][slot] = v
			}
		}
		probs[g] = make([]float64, len(idxs))
		if err := sv.scorer.ScoreBatch(g, cols, probs[g]); err != nil {
			return resp, fmt.Errorf("serve: batch group %d: %w", g, err)
		}
	}
	for i := range resp.Results {
		p := probs[place[i].group][place[i].slot]
		resp.Results[i].Prob = p
		resp.Results[i].Alarm = p >= resp.Results[i].Threshold
	}
	resp.Degraded = s.degradedNow()
	return resp, nil
}

// errCode extracts a reqError's status, defaulting to 400.
func errCode(err error) int {
	var re *reqError
	if errors.As(err, &re) {
		return re.code
	}
	return http.StatusBadRequest
}

// errKind extracts a reqError's machine-readable kind, defaulting to
// bad_request.
func errKind(err error) string {
	var re *reqError
	if errors.As(err, &re) && re.kind != "" {
		return re.kind
	}
	return kindBadRequest
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req FleetRequest
	if err := s.decodeBody(w, r, s.opts.MaxSmallBodyBytes, &req); err != nil {
		s.fail(w, err)
		return
	}
	art, ok := s.artifactByName(req.Model)
	if !ok {
		s.writeErr(w, http.StatusNotFound, "unknown model %q", req.Model)
		return
	}
	if s.opts.Store == nil {
		s.writeErr(w, http.StatusNotImplemented, "fleet scoring is disabled: no store configured")
		return
	}
	sv := art.cur.Load()
	snap := s.opts.Store.Snapshot()
	if req.Day < 0 || req.Day >= snap.Days() {
		s.writeErr(w, http.StatusBadRequest, "day %d outside store horizon %d", req.Day, snap.Days())
		return
	}
	if !s.brk.allow() {
		s.writeErrKind(w, http.StatusServiceUnavailable, kindStoreUnavailable, "store circuit breaker open: fleet scoring shed")
		return
	}
	sv.fleetMu.Lock()
	outcomes, err := sv.scorer.ScoreInto(snap, req.Day, req.Day, &sv.fleetBuf)
	if err != nil {
		sv.fleetMu.Unlock()
		s.brk.failure()
		s.writeErrKind(w, http.StatusServiceUnavailable, kindStoreUnavailable, "fleet scoring: %v", err)
		return
	}
	s.brk.success()
	resp := FleetResponse{
		Model: sv.name, Version: sv.version, ConfigHash: sv.hash,
		Day: req.Day, Drives: len(outcomes),
	}
	var total float64
	for _, o := range outcomes {
		total += o.MaxProb
		if o.Pred.FirstAlarmDay >= 0 {
			resp.Alarms++
		}
	}
	sv.fleetMu.Unlock()
	if len(outcomes) > 0 {
		resp.MeanProb = total / float64(resp.Drives)
	}
	if resp.Degraded = s.degradedNow(); resp.Degraded {
		s.degraded.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req IngestRequest
	if err := s.decodeBody(w, r, s.opts.MaxSmallBodyBytes, &req); err != nil {
		s.fail(w, err)
		return
	}
	if s.opts.Store == nil {
		s.writeErr(w, http.StatusNotImplemented, "ingest is disabled: no store configured")
		return
	}
	if req.Day < 0 || req.Day >= s.opts.Store.SourceDays() {
		s.writeErr(w, http.StatusBadRequest, "day %d outside upstream span %d", req.Day, s.opts.Store.SourceDays())
		return
	}
	if !s.brk.allow() {
		s.writeErrKind(w, http.StatusServiceUnavailable, kindStoreUnavailable, "store circuit breaker open: ingest shed")
		return
	}
	for _, name := range s.names {
		sv := s.arts[name].cur.Load()
		if err := s.opts.Store.Track(sv.model); err != nil {
			s.brk.failure()
			s.fail(w, storeIngestErr(fmt.Errorf("track %v: %w", sv.model, err)))
			return
		}
	}
	if err := s.opts.Store.AppendThroughCtx(r.Context(), req.Day); err != nil {
		s.brkFetchFailed(err)
		s.fail(w, storeIngestErr(fmt.Errorf("ingest day %d: %w", req.Day, err)))
		return
	}
	s.brk.success()
	s.ingests.Add(1)
	c := s.opts.Store.Counters()
	writeJSON(w, http.StatusOK, IngestResponse{
		Horizon:       s.opts.Store.Horizon(),
		DaysIngested:  c.DaysIngested,
		SeriesFetches: c.SeriesFetches,
	})
}

// storeIngestErr classifies an ingest failure: a cancelled or
// deadline-blown append is a 503 deadline_exceeded, anything else a
// 503 store_unavailable — an unreachable upstream must not read as a
// daemon bug.
func storeIngestErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return &reqError{code: http.StatusServiceUnavailable, kind: kindDeadlineExceeded, msg: err.Error()}
	}
	return &reqError{code: http.StatusServiceUnavailable, kind: kindStoreUnavailable, msg: err.Error()}
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	swapped, err := s.Reload()
	if err != nil {
		s.writeErrKind(w, http.StatusServiceUnavailable, kindRegistryDown, "reload: %v", err)
		return
	}
	if swapped == nil {
		swapped = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"swapped": swapped})
}
