package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/flat"
	"repro/internal/forest"
	"repro/internal/smart"
)

// SnapshotFormat is the current ModelSnapshot serialization format.
// Loaders reject snapshots with a different format number. Format 2
// carries only the compiled flat payload per group; format-1
// artifacts (gob model plus optional flat payload) must be retrained.
const SnapshotFormat = 2

// ErrSnapshotFormat indicates a snapshot with an incompatible format.
var ErrSnapshotFormat = errors.New("pipeline: incompatible snapshot format")

// Values of GroupSnapshot.Predictor. The Random Forest is the only
// model family this build trains or scores; 2 marked gradient-boosted
// groups, whose payloads gob-decode as a forest without error and
// would then score garbage, so they are refused by tag.
const (
	predictorForest = 1
	predictorGBDT   = 2
)

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
	// Predictor tags the trained model family; every snapshot this
	// build writes carries 1 (Random Forest), the only value it reads.
	Predictor int `json:"predictor"`
	// FlatData is the serialized compiled flat model (base64 in JSON);
	// loaders score through it without recompiling.
	FlatData []byte `json:"flat_data"`
}

// ModelSnapshot is the versioned, self-contained artifact of a trained
// phase: the feature selection, the per-group trained models, the
// calibrated alarm thresholds, and the hash of the config that trained
// them. It is JSON-serializable and can score new days without
// retraining (NewScorer).
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
		Forest       forest.Config
		NegEvery     int
		TargetRecall float64
		ValFraction  float64
		Windows      []int
		Seed         int64
	}{
		Forest:       c.Forest,
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
			Predictor:  predictorForest,
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
	if err := s.checkFormat(); err != nil {
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
		m, err := flat.UnmarshalForest(gs.FlatData)
		if err != nil {
			return nil, fmt.Errorf("pipeline: snapshot group %d: %w", i, err)
		}
		m.Workers = workers
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

// Scorer scores windows with trained wear groups and their alarm
// thresholds. NewScorer decodes a ModelSnapshot's groups once for
// repeated scoring (the continuous-operation controller scores the
// fleet every day, the serving daemon on every request); a phase run
// scores its validation and test windows through one built over its
// freshly trained groups.
type Scorer struct {
	snap       *ModelSnapshot // nil for a phase run's scorer
	model      smart.ModelID
	groups     []group
	thresholds []float64
	cfg        Config

	// san sanitizes each drive's read columns when cfg is robust, and
	// masks appends a ".miss" cell per feature to every row.
	san   *dataset.SanitizeOpts
	masks bool

	// reads lists the columns one scoring pass reads per drive: MWI_N
	// first, then the union of the groups' features; cols[g][i] is
	// the position in reads of group g's i-th feature.
	reads []smart.Feature
	cols  [][]int
}

// NewScorer decodes the snapshot's trained groups for repeated
// scoring. Workers bounds scoring parallelism (0 = GOMAXPROCS);
// results are bit-identical for any value.
func NewScorer(snap *ModelSnapshot, workers int) (*Scorer, error) {
	groups, err := snap.buildGroups(workers)
	if err != nil {
		return nil, err
	}
	cfg := Config{Windows: append([]int(nil), snap.Windows...), Workers: workers}
	s := newScorer(snap.Model, groups, snap.Thresholds, cfg)
	s.snap = snap
	return s, nil
}

// newScorer builds a scorer of the model's drives over trained groups
// and their thresholds (nil until calibrated). cfg supplies the
// windows, Workers, and — for a phase run — the robust options.
func newScorer(model smart.ModelID, groups []group, thresholds []float64, cfg Config) *Scorer {
	s := &Scorer{
		model:      model,
		groups:     groups,
		thresholds: thresholds,
		cfg:        cfg,
		san:        cfg.sanitizeOpts(true),
		reads:      []smart.Feature{MWIFeature},
		cols:       make([][]int, len(groups)),
	}
	s.masks = s.san != nil && s.san.MissMask
	pos := map[smart.Feature]int{MWIFeature: 0}
	for g := range groups {
		for _, ft := range groups[g].feats {
			i, ok := pos[ft]
			if !ok {
				i = len(s.reads)
				pos[ft] = i
				s.reads = append(s.reads, ft)
			}
			s.cols[g] = append(s.cols[g], i)
		}
	}
	return s
}

// Snapshot returns the snapshot the scorer was built from.
func (s *Scorer) Snapshot() *ModelSnapshot { return s.snap }

// Score scores days [lo, hi] of src with the trained models and
// calibrated thresholds: ScoreInto with a fresh buffer, so the
// outcomes are the caller's to keep. Scoring a snapshot reproduces the
// phase run that saved it bit for bit.
func (s *Scorer) Score(src dataset.Source, lo, hi int) ([]DriveOutcome, error) {
	return s.ScoreInto(src, lo, hi, new(ScoreBuf))
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
// number or model family (ErrSnapshotFormat). It validates the
// serialization envelope only; the per-group model payloads are
// checked when the groups are built for scoring.
func DecodeSnapshot(data []byte) (*ModelSnapshot, error) {
	var snap ModelSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	if err := snap.checkFormat(); err != nil {
		return nil, err
	}
	return &snap, nil
}

// checkFormat rejects a snapshot format other than SnapshotFormat and
// any group not tagged as a Random Forest.
func (s *ModelSnapshot) checkFormat() error {
	if s.Format != SnapshotFormat {
		return fmt.Errorf("%w: format %d, this build reads format %d; retrain to produce a format-%d snapshot",
			ErrSnapshotFormat, s.Format, SnapshotFormat, SnapshotFormat)
	}
	for i, g := range s.Groups {
		switch g.Predictor {
		case predictorForest:
		case predictorGBDT:
			return fmt.Errorf("%w: group %d holds a gradient-boosted model, a family this build no longer scores; retrain to produce a Random Forest snapshot",
				ErrSnapshotFormat, i)
		default:
			return fmt.Errorf("%w: group %d has predictor %d, this build reads only %d (Random Forest); retrain",
				ErrSnapshotFormat, i, g.Predictor, predictorForest)
		}
	}
	return nil
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
