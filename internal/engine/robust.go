package engine

import (
	"fmt"
	"sync"

	"repro/internal/dataset"
)

// RobustOpts hardens the pipeline against dirty data. With a non-nil
// Robust config, every frame the pipeline builds and every window it
// scores is sanitized (sentinel scrub, bounded imputation,
// missingness masks on training and scored rows), a phase whose
// selection fails falls back to the previous phase's selection before
// being skipped, and all degradation events are accounted in the
// Report. A training or scoring pass sanitizes, and counts, each
// drive's read columns once, not once per wear group. A nil Robust
// config reproduces the legacy pipeline exactly, bit for bit.
type RobustOpts struct {
	// Sanitize configures series cleaning. Counter is overwritten to
	// feed the Report when one is set; MissMask applies to training
	// and scored rows only (the selection frame keeps pure
	// feature columns, which selectors rank and parse by name).
	Sanitize dataset.SanitizeOpts
	// Report, when non-nil, accumulates degradation events and detected
	// defects across the run.
	Report *RunReport
}

// sanitizeOpts builds the sanitization options of a selection frame
// or an engine pass; mask selects whether missingness-mask cells are
// appended (training and scored rows only).
func (c Config) sanitizeOpts(mask bool) *dataset.SanitizeOpts {
	if c.Robust == nil {
		return nil
	}
	s := c.Robust.Sanitize
	s.MissMask = s.MissMask && mask
	if c.Robust.Report != nil {
		s.Counter = c.Robust.Report.Counter()
	}
	return &s
}

// report returns the run report, or nil.
func (c Config) report() *RunReport {
	if c.Robust == nil {
		return nil
	}
	return c.Robust.Report
}

// RunReport accumulates what a robust run did about bad data: defects
// the sanitizer detected, preliminary rankers dropped from the
// ensemble, fallbacks and skips taken per phase. Safe for concurrent
// use; serialize with Snapshot.
type RunReport struct {
	mu             sync.Mutex
	counter        dataset.DefectCounter
	rankersDropped []string
	fallbacks      []string
	phasesRun      int
	phasesSkipped  int
}

// Counter exposes the detected-defect counter the sanitizer feeds.
func (r *RunReport) Counter() *dataset.DefectCounter {
	if r == nil {
		return nil
	}
	return &r.counter
}

// NoteRankerDropped records a preliminary approach dropped during one
// selection; entry is "<ranker>: <reason>".
func (r *RunReport) NoteRankerDropped(ctx, entry string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rankersDropped = append(r.rankersDropped, fmt.Sprintf("%s: %s", ctx, entry))
	r.mu.Unlock()
}

// NoteFallback records a degradation decision (inherited selection,
// skipped change point, skipped phase).
func (r *RunReport) NoteFallback(desc string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.fallbacks = append(r.fallbacks, desc)
	r.mu.Unlock()
}

// NotePhase records a phase completing (ok) or being skipped.
func (r *RunReport) NotePhase(ok bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if ok {
		r.phasesRun++
	} else {
		r.phasesSkipped++
	}
	r.mu.Unlock()
}

// ReportSnapshot is the serializable form of a RunReport. Injected
// carries the fault injector's per-class counts when the caller ran
// one (nil on organic dirty data).
type ReportSnapshot struct {
	Injected       map[string]int      `json:"injected,omitempty"`
	Detected       dataset.DefectStats `json:"detected"`
	RankersDropped []string            `json:"rankers_dropped,omitempty"`
	Fallbacks      []string            `json:"fallbacks,omitempty"`
	PhasesRun      int                 `json:"phases_run"`
	PhasesSkipped  int                 `json:"phases_skipped"`
}

// Snapshot captures the report for serialization, attaching the given
// injected-defect counts (may be nil).
func (r *RunReport) Snapshot(injected map[string]int) ReportSnapshot {
	if r == nil {
		return ReportSnapshot{Injected: injected}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReportSnapshot{
		Injected:       injected,
		Detected:       r.counter.Snapshot(),
		RankersDropped: append([]string(nil), r.rankersDropped...),
		Fallbacks:      append([]string(nil), r.fallbacks...),
		PhasesRun:      r.phasesRun,
		PhasesSkipped:  r.phasesSkipped,
	}
}
