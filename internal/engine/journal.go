package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/runlog"
	"repro/internal/smart"
)

// Journaling errors.
var (
	// ErrJournalExists indicates a journal directory that already holds
	// a run journal while Resume was not requested.
	ErrJournalExists = errors.New("pipeline: journal exists (resume not requested)")
	// ErrJournalMismatch indicates a journal written by a run with a
	// different configuration, model, selector, or phase layout.
	ErrJournalMismatch = errors.New("pipeline: journal does not match this run")
)

// JournalOpts configures a journaled run (RunJournaled).
type JournalOpts struct {
	// Dir is the journal directory: it holds the run journal
	// ("run.journal") and the per-phase model artifacts
	// ("artifacts/phase-NNNN/vNNNN.json"). Created if missing.
	Dir string
	// Resume allows continuing an existing journal: phases it records
	// as complete are reloaded from their saved artifacts instead of
	// retrained. Without Resume, an existing journal is an error —
	// silently appending to a stale journal would mix two runs.
	Resume bool
	// Log, when non-nil, receives one human-readable line per resume
	// decision (phases reloaded or adopted). Never written on the
	// clean path, so stdout stays bit-identical; CLIs pass stderr.
	Log func(format string, args ...any)
}

func (jo JournalOpts) logf(format string, args ...any) {
	if jo.Log != nil {
		jo.Log(format, args...)
	}
}

// journalFile is the run journal's file name inside JournalOpts.Dir.
const journalFile = "run.journal"

// Journal record types.
const (
	recMeta      = "meta"       // run identity, first record
	recPhaseDone = "phase-done" // one completed phase
)

// journalMeta is the journal's first record: the identity of the run
// that owns it. A resume with a different identity is refused — its
// artifacts would be meaningless for the new run.
type journalMeta struct {
	ConfigHash string        `json:"config_hash"`
	Model      smart.ModelID `json:"model"`
	Selector   string        `json:"selector"`
}

// journalPhaseDone records one completed phase: its index and bounds,
// and the registry artifact holding its trained ModelSnapshot.
type journalPhaseDone struct {
	Index    int    `json:"index"`
	Phase    Phase  `json:"phase"`
	Artifact string `json:"artifact"`
	Version  int    `json:"version"`
}

// phaseArtifact names the registry artifact of the i-th phase.
func phaseArtifact(i int) string { return fmt.Sprintf("phase-%04d", i) }

// RunJournaled is Run with crash recovery: each completed phase's
// trained artifact is saved to a registry under jo.Dir and recorded in
// an fsync'd, checksummed run journal. If the process dies mid-run,
// rerunning with Resume reloads every journaled phase from its
// artifact — retraining only the interrupted one — and produces
// results bit-identical to an uninterrupted run.
//
// Robust-mode configs are rejected: their trained state is not
// snapshotable (ErrNotSnapshotable), so a crashed robust run cannot be
// resumed faithfully.
func RunJournaled(src dataset.Source, model smart.ModelID, sel Selector, phases []Phase, cfg Config, jo JournalOpts) ([]PhaseResult, metrics.Confusion, error) {
	if cfg.Robust != nil {
		return nil, metrics.Confusion{}, fmt.Errorf("%w: robust-mode runs cannot be journaled", ErrNotSnapshotable)
	}
	if jo.Dir == "" {
		return nil, metrics.Confusion{}, errors.New("pipeline: empty journal directory")
	}
	if err := os.MkdirAll(jo.Dir, 0o755); err != nil {
		return nil, metrics.Confusion{}, fmt.Errorf("pipeline: journal dir: %w", err)
	}
	path := filepath.Join(jo.Dir, journalFile)
	if !jo.Resume {
		if _, err := os.Stat(path); err == nil {
			return nil, metrics.Confusion{}, fmt.Errorf("%w: %s", ErrJournalExists, path)
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, metrics.Confusion{}, err
		}
	}
	j, recs, err := runlog.Open(path)
	if err != nil {
		return nil, metrics.Confusion{}, fmt.Errorf("pipeline: open journal: %w", err)
	}
	defer j.Close()

	meta := journalMeta{ConfigHash: cfg.Hash(), Model: model, Selector: sel.Name()}
	done, err := replayJournal(recs, meta, phases)
	if err != nil {
		return nil, metrics.Confusion{}, err
	}
	if len(recs) == 0 {
		if err := j.Append(recMeta, meta); err != nil {
			return nil, metrics.Confusion{}, fmt.Errorf("pipeline: journal meta: %w", err)
		}
	}
	reg := &core.Registry{Dir: filepath.Join(jo.Dir, "artifacts")}

	e := New(src, cfg)
	var results []PhaseResult
	var total metrics.Confusion
	for i, ph := range phases {
		rec, ok := done[i]
		if !ok {
			// A crash between artifact save and journal append leaves a
			// complete artifact with no record; adopt it rather than
			// training a duplicate version.
			if adopted, found := adoptArtifact(reg, phaseArtifact(i), meta, ph); found {
				rec = journalPhaseDone{Index: i, Phase: ph, Artifact: phaseArtifact(i), Version: adopted}
				if err := j.Append(recPhaseDone, rec); err != nil {
					return nil, metrics.Confusion{}, fmt.Errorf("pipeline: journal phase %d: %w", i, err)
				}
				jo.logf("resume: adopted unjournaled artifact %s v%d for phase %d", rec.Artifact, rec.Version, i)
				ok = true
			}
		}
		var res PhaseResult
		if ok {
			res, err = e.reloadPhase(reg, rec, model)
			if err != nil {
				return nil, metrics.Confusion{}, fmt.Errorf("pipeline: model %v phase test [%d, %d]: resume: %w", model, ph.TestLo, ph.TestHi, err)
			}
			jo.logf("resume: phase %d reloaded from %s v%d (no retraining)", i, rec.Artifact, rec.Version)
		} else {
			res, err = e.runJournaledPhase(j, reg, model, sel, ph, i)
			if err != nil {
				return nil, metrics.Confusion{}, fmt.Errorf("pipeline: model %v phase test [%d, %d]: %w", model, ph.TestLo, ph.TestHi, err)
			}
		}
		results = append(results, res)
		total.Merge(res.Confusion)
	}
	return results, total, nil
}

// replayJournal validates the journal's records against this run and
// returns the completed phases by index.
func replayJournal(recs []runlog.Record, meta journalMeta, phases []Phase) (map[int]journalPhaseDone, error) {
	done := make(map[int]journalPhaseDone)
	for i, rec := range recs {
		switch rec.Type {
		case recMeta:
			if i != 0 {
				return nil, fmt.Errorf("%w: meta record at position %d", ErrJournalMismatch, i)
			}
			var m journalMeta
			if err := rec.Decode(&m); err != nil {
				return nil, fmt.Errorf("pipeline: journal meta: %w", err)
			}
			if m != meta {
				return nil, fmt.Errorf("%w: journal is for config %s model %v selector %q, this run is config %s model %v selector %q",
					ErrJournalMismatch, m.ConfigHash, m.Model, m.Selector, meta.ConfigHash, meta.Model, meta.Selector)
			}
		case recPhaseDone:
			if i == 0 {
				return nil, fmt.Errorf("%w: journal has no meta record", ErrJournalMismatch)
			}
			var pd journalPhaseDone
			if err := rec.Decode(&pd); err != nil {
				return nil, fmt.Errorf("pipeline: journal phase record: %w", err)
			}
			if pd.Index < 0 || pd.Index >= len(phases) {
				return nil, fmt.Errorf("%w: journaled phase %d outside this run's %d phases", ErrJournalMismatch, pd.Index, len(phases))
			}
			if pd.Phase != phases[pd.Index] {
				return nil, fmt.Errorf("%w: journaled phase %d bounds %+v, this run has %+v", ErrJournalMismatch, pd.Index, pd.Phase, phases[pd.Index])
			}
			done[pd.Index] = pd
		default:
			return nil, fmt.Errorf("%w: unknown journal record type %q", ErrJournalMismatch, rec.Type)
		}
	}
	if len(recs) > 0 && recs[0].Type != recMeta {
		return nil, fmt.Errorf("%w: journal does not start with a meta record", ErrJournalMismatch)
	}
	return done, nil
}

// adoptArtifact checks whether the artifact's latest version is a
// snapshot this run could have saved for the phase, returning its
// version. Artifacts are published atomically, so an existing version
// is complete; matching identity and training horizon makes it
// exactly what rerunning the phase would reproduce.
func adoptArtifact(reg *core.Registry, name string, meta journalMeta, ph Phase) (int, bool) {
	data, version, err := reg.Load(name, 0)
	if err != nil {
		return 0, false
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return 0, false
	}
	if snap.ConfigHash != meta.ConfigHash || snap.Model != meta.Model ||
		snap.Selector != meta.Selector || snap.TrainedThrough != ph.TrainHi {
		return 0, false
	}
	return version, true
}

// runJournaledPhase trains one phase live and checkpoints it: the
// trained snapshot is saved to the registry, then the completion is
// journaled. The crash window between the two is covered by artifact
// adoption on resume.
func (e *Engine) runJournaledPhase(j *runlog.Journal, reg *core.Registry, model smart.ModelID, sel Selector, ph Phase, idx int) (PhaseResult, error) {
	pd, err := e.PreparePhase(model, ph)
	if err != nil {
		return PhaseResult{}, err
	}
	res, err := pd.RunSelector(sel)
	if err != nil {
		return PhaseResult{}, err
	}
	snap, err := res.Snapshot()
	if err != nil {
		return PhaseResult{}, err
	}
	version, err := SaveSnapshot(reg, phaseArtifact(idx), snap)
	if err != nil {
		return PhaseResult{}, fmt.Errorf("checkpoint: %w", err)
	}
	faults.CrashPoint(crashAfterSave)
	rec := journalPhaseDone{Index: idx, Phase: ph, Artifact: phaseArtifact(idx), Version: version}
	if err := j.Append(recPhaseDone, rec); err != nil {
		return PhaseResult{}, fmt.Errorf("checkpoint: %w", err)
	}
	return res, nil
}

// reloadPhase reconstructs a completed phase's result from its saved
// snapshot: ingest through the phase's test end (reusing every
// already-ingested day), rebuild the trained groups, and re-score the
// test window. Scoring a snapshot is bit-identical to the in-memory
// result that produced it, so a reloaded PhaseResult matches the
// original's outcomes, thresholds, and confusion exactly.
func (e *Engine) reloadPhase(reg *core.Registry, rec journalPhaseDone, model smart.ModelID) (PhaseResult, error) {
	snap, err := LoadSnapshot(reg, rec.Artifact, rec.Version)
	if err != nil {
		return PhaseResult{}, err
	}
	ph := rec.Phase
	switch {
	case snap.Model != model:
		return PhaseResult{}, fmt.Errorf("%w: artifact trained for model %v", ErrJournalMismatch, snap.Model)
	case snap.ConfigHash != e.cfg.Hash():
		return PhaseResult{}, fmt.Errorf("%w: artifact config %s, run config %s", ErrJournalMismatch, snap.ConfigHash, e.cfg.Hash())
	case snap.TrainedThrough != ph.TrainHi:
		return PhaseResult{}, fmt.Errorf("%w: artifact trained through day %d, phase trains through %d", ErrJournalMismatch, snap.TrainedThrough, ph.TrainHi)
	}
	sc, err := NewScorer(snap, e.cfg.Workers)
	if err != nil {
		return PhaseResult{}, err
	}
	if err := e.st.Track(model); err != nil {
		return PhaseResult{}, err
	}
	if err := e.st.AppendThrough(ph.TestHi); err != nil {
		return PhaseResult{}, err
	}
	outcomes, err := sc.Score(e.st.Snapshot(), ph.TestLo, ph.TestHi)
	if err != nil {
		return PhaseResult{}, fmt.Errorf("rescore: %w", err)
	}
	return PhaseResult{
		Selector:   snap.Selector,
		Model:      model,
		Selection:  snap.Selection,
		Thresholds: append([]float64(nil), snap.Thresholds...),
		Outcomes:   outcomes,
		Confusion:  EvaluateOutcomes(outcomes),
		groups:     sc.groups,
		cfg:        e.cfg,
		trainHi:    ph.TrainHi,
	}, nil
}
