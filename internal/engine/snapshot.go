package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/forest"
	"repro/internal/gbdt"
	"repro/internal/smart"
)

// SnapshotFormat is the current ModelSnapshot serialization format.
// Loaders reject snapshots with a different format number. Format 2
// carries only the compiled flat payload per group; format-1
// artifacts (gob model plus optional flat payload) must be retrained.
const SnapshotFormat = 2

// ErrSnapshotFormat indicates a snapshot with an incompatible format.
var ErrSnapshotFormat = errors.New("pipeline: incompatible snapshot format")

// ErrSnapshotCorrupt indicates snapshot bytes that do not decode as a
// ModelSnapshot — a truncated or damaged artifact, as opposed to a
// well-formed snapshot of an incompatible format (ErrSnapshotFormat).
var ErrSnapshotCorrupt = errors.New("pipeline: corrupt snapshot")

// ErrNotSnapshotable indicates a phase result that cannot be captured
// as a ModelSnapshot (robust-mode runs: their miss-mask columns depend
// on scoring-time sanitization state, so the trained model is not a
// self-contained artifact).
var ErrNotSnapshotable = errors.New("pipeline: phase result not snapshotable")

// GroupSnapshot is one trained wear group inside a ModelSnapshot.
type GroupSnapshot struct {
	// Features are the group's selected original features by name.
	Features []string `json:"features"`
	// MWIBelow / MWIAtLeast bound the group's wear filter (0 = none).
	MWIBelow   float64 `json:"mwi_below,omitempty"`
	MWIAtLeast float64 `json:"mwi_at_least,omitempty"`
	// Predictor is the trained model family.
	Predictor Predictor `json:"predictor"`
	// FlatData is the serialized compiled flat model (base64 in JSON);
	// loaders score through it without recompiling.
	FlatData []byte `json:"flat_data"`
}

// ModelSnapshot is the versioned, self-contained artifact of a trained
// phase: the feature selection, the per-group trained models, the
// calibrated alarm thresholds, and the hash of the config that trained
// them. It is JSON-serializable and can score new days without
// retraining (ScoreSnapshot).
type ModelSnapshot struct {
	// Format is the serialization format number (SnapshotFormat).
	Format int `json:"format"`
	// Model is the drive model the snapshot was trained for.
	Model smart.ModelID `json:"model"`
	// ModelName is Model's human-readable name (informational).
	ModelName string `json:"model_name"`
	// Selector names the selection strategy that chose the features.
	Selector string `json:"selector"`
	// Selection is the full selection result.
	Selection SelectorResult `json:"selection"`
	// TrainedThrough is the last training day the models saw.
	TrainedThrough int `json:"trained_through"`
	// Groups holds one trained model per wear group.
	Groups []GroupSnapshot `json:"groups"`
	// Thresholds are the calibrated per-group alarm thresholds,
	// parallel to Groups.
	Thresholds []float64 `json:"thresholds"`
	// Windows are the feature-generation windows used at training time
	// (nil = the dataset defaults); scoring must use the same.
	Windows []int `json:"windows,omitempty"`
	// ConfigHash fingerprints the training configuration (Config.Hash)
	// so a loaded snapshot can be checked against the config a caller
	// expects.
	ConfigHash string `json:"config_hash"`
}

// Hash fingerprints the semantically relevant training configuration:
// two configs with equal hashes train bit-identical models on the same
// data. Parallelism (Workers) is excluded — results are
// worker-invariant — as are robustness options (robust runs are not
// snapshotable).
func (c Config) Hash() string {
	c = c.withDefaults()
	h := struct {
		Predictor    Predictor
		Forest       forest.Config
		GBDT         gbdt.Config
		NegEvery     int
		TargetRecall float64
		ValFraction  float64
		Windows      []int
		Seed         int64
	}{
		Predictor:    c.predictor(),
		Forest:       c.Forest,
		GBDT:         c.GBDT,
		NegEvery:     c.NegEvery,
		TargetRecall: c.TargetRecall,
		ValFraction:  c.ValFraction,
		Windows:      c.Windows,
		Seed:         c.Seed,
	}
	// Forest workers are parallelism, not semantics.
	h.Forest.Workers = 0
	data, err := json.Marshal(h)
	if err != nil {
		// The struct is all plain values; Marshal cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// Snapshot captures the phase's trained artifact as a self-contained
// ModelSnapshot. It errs for robust-mode runs (ErrNotSnapshotable) and
// for results not produced by a run (zero PhaseResult).
func (r *PhaseResult) Snapshot() (*ModelSnapshot, error) {
	if len(r.groups) == 0 {
		return nil, fmt.Errorf("%w: result has no trained groups", ErrNotSnapshotable)
	}
	if r.cfg.Robust != nil {
		return nil, fmt.Errorf("%w: robust-mode run", ErrNotSnapshotable)
	}
	snap := &ModelSnapshot{
		Format:         SnapshotFormat,
		Model:          r.Model,
		ModelName:      r.Model.String(),
		Selector:       r.Selector,
		Selection:      r.Selection,
		TrainedThrough: r.trainHi,
		Thresholds:     append([]float64(nil), r.Thresholds...),
		Windows:        append([]int(nil), r.cfg.Windows...),
		ConfigHash:     r.cfg.Hash(),
	}
	for _, g := range r.groups {
		data, err := g.model.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("pipeline: marshal group model: %w", err)
		}
		snap.Groups = append(snap.Groups, GroupSnapshot{
			Features:   append([]string(nil), g.names...),
			MWIBelow:   g.mwiBelow,
			MWIAtLeast: g.mwiAtLeast,
			Predictor:  r.cfg.predictor(),
			FlatData:   data,
		})
	}
	return snap, nil
}

// buildGroups reconstructs the trained scoring groups from the
// snapshot. A group whose model width disagrees with its feature list
// is rejected as corrupt: it would decode cleanly and then fail every
// batch it scores.
func (s *ModelSnapshot) buildGroups(workers int) ([]group, error) {
	if err := checkFormat(s.Format); err != nil {
		return nil, err
	}
	if len(s.Groups) == 0 || len(s.Thresholds) != len(s.Groups) {
		return nil, fmt.Errorf("pipeline: malformed snapshot: %d groups, %d thresholds", len(s.Groups), len(s.Thresholds))
	}
	out := make([]group, len(s.Groups))
	for i, gs := range s.Groups {
		feats := make([]smart.Feature, len(gs.Features))
		for j, n := range gs.Features {
			ft, err := smart.ParseFeature(n)
			if err != nil {
				return nil, fmt.Errorf("pipeline: snapshot feature %q: %w", n, err)
			}
			feats[j] = ft
		}
		m, err := unmarshalModel(gs.Predictor, gs.FlatData, workers)
		if err != nil {
			return nil, fmt.Errorf("pipeline: snapshot group %d: %w", i, err)
		}
		if want := inputWidth(len(feats), s.Windows); m.NumFeatures() != want {
			return nil, fmt.Errorf("%w: group %d model has %d input columns, its %d features need %d",
				ErrSnapshotCorrupt, i, m.NumFeatures(), len(feats), want)
		}
		out[i] = group{
			feats:      feats,
			names:      gs.Features,
			mwiBelow:   gs.MWIBelow,
			mwiAtLeast: gs.MWIAtLeast,
			model:      m,
		}
	}
	return out, nil
}

// ScoreOpts configures snapshot scoring.
type ScoreOpts struct {
	// Workers bounds scoring parallelism; 0 means GOMAXPROCS. Results
	// are bit-identical for any value.
	Workers int
}

// ScoreSnapshot scores days [lo, hi] of src with a loaded snapshot's
// trained models and calibrated thresholds — no retraining. The
// outcomes are bit-identical to what the in-memory PhaseResult that
// produced the snapshot would report for the same window.
func ScoreSnapshot(src dataset.Source, snap *ModelSnapshot, lo, hi int, opts ScoreOpts) ([]DriveOutcome, error) {
	s, err := NewScorer(snap, opts.Workers)
	if err != nil {
		return nil, err
	}
	return s.Score(src, lo, hi)
}

// Scorer is a ModelSnapshot whose trained groups have been decoded
// once for repeated scoring. Callers that score many windows with the
// same snapshot (the continuous-operation controller scores the fleet
// every day) avoid re-decoding the serialized models per call; results
// are bit-identical to ScoreSnapshot.
type Scorer struct {
	snap   *ModelSnapshot
	groups []group
	cfg    Config
}

// NewScorer decodes the snapshot's trained groups for repeated
// scoring. Workers bounds scoring parallelism (0 = GOMAXPROCS);
// results are bit-identical for any value.
func NewScorer(snap *ModelSnapshot, workers int) (*Scorer, error) {
	groups, err := snap.buildGroups(workers)
	if err != nil {
		return nil, err
	}
	return &Scorer{
		snap:   snap,
		groups: groups,
		cfg:    Config{Windows: append([]int(nil), snap.Windows...), Workers: workers},
	}, nil
}

// Snapshot returns the snapshot the scorer was built from.
func (s *Scorer) Snapshot() *ModelSnapshot { return s.snap }

// Score scores days [lo, hi] of src with the snapshot's trained models
// and calibrated thresholds, exactly as ScoreSnapshot would.
func (s *Scorer) Score(src dataset.Source, lo, hi int) ([]DriveOutcome, error) {
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("pipeline: bad scoring window [%d, %d]", lo, hi)
	}
	scores, _, err := scorePhase(src, s.snap.Model, s.groups, lo, hi, s.cfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: snapshot scoring: %w", err)
	}
	return finalizeOutcomes(scores, s.snap.Thresholds, hi), nil
}

// SaveSnapshot serializes the snapshot into the registry under name
// and returns the assigned version.
func SaveSnapshot(reg *core.Registry, name string, snap *ModelSnapshot) (int, error) {
	data, err := json.Marshal(snap)
	if err != nil {
		return 0, fmt.Errorf("pipeline: encode snapshot: %w", err)
	}
	return reg.Save(name, data)
}

// DecodeSnapshot decodes serialized snapshot bytes, distinguishing
// undecodable input (ErrSnapshotCorrupt) from an incompatible format
// number (ErrSnapshotFormat). It validates the serialization envelope
// only; the per-group model payloads are checked when the groups are
// built for scoring.
func DecodeSnapshot(data []byte) (*ModelSnapshot, error) {
	var snap ModelSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	if err := checkFormat(snap.Format); err != nil {
		return nil, err
	}
	return &snap, nil
}

// checkFormat rejects a snapshot format other than SnapshotFormat.
func checkFormat(format int) error {
	if format == SnapshotFormat {
		return nil
	}
	return fmt.Errorf("%w: format %d, this build reads format %d; retrain to produce a format-%d snapshot",
		ErrSnapshotFormat, format, SnapshotFormat, SnapshotFormat)
}

// LoadSnapshot loads a snapshot version from the registry; version <= 0
// loads the latest.
func LoadSnapshot(reg *core.Registry, name string, version int) (*ModelSnapshot, error) {
	data, version, err := reg.Load(name, version)
	if err != nil {
		return nil, err
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("pipeline: snapshot %q v%d: %w", name, version, err)
	}
	return snap, nil
}
