// Package experiments regenerates every table and figure of the WEFR
// paper's evaluation (DSN 2021) on the simulated fleet: the dataset
// overview tables (I, II), the feature-importance characterization
// (Table III, Table IV, Fig 1, Table V), and the four experiments
// (Table VI / Exp#1, Fig 2 / Exp#2, Table VII / Exp#3, Table VIII /
// Exp#4). Each experiment returns a structured result with a Render
// method producing an aligned text table or ASCII plot; cmd/experiments
// is the CLI front end and bench_test.go at the repository root wires
// one benchmark per table/figure.
package experiments

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/forest"
	"repro/internal/selection"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/store"
)

// Config scales the harness. The zero value is unusable; use
// DefaultConfig or TestConfig.
type Config struct {
	// TotalDrives is the simulated fleet size across all models.
	TotalDrives int
	// Days is the dataset span; 0 means the paper's 730.
	Days int
	// Seed fixes all randomness.
	Seed int64
	// AFRScale densifies failures so small fleets retain enough
	// positives per testing phase; 0 means 3.
	AFRScale float64
	// NegEvery is the training-frame negative-sampling stride; 0
	// means 20.
	NegEvery int
	// Forest configures the prediction model; zero NumTrees means the
	// paper's 100x13 setup.
	Forest forest.Config
	// SweepPercents are the fixed selected-feature percentages swept
	// for the Exp#1 baselines and Exp#2 curves; nil means
	// 10%..100% in steps of 10 (the paper's grid).
	SweepPercents []float64
	// Models restricts experiments to a subset; nil means all six.
	Models []smart.ModelID
	// PhaseCount restricts how many of the paper's three testing
	// phases run (taking the latest ones); 0 means all three.
	PhaseCount int
	// RankerSpecs names the preliminary approaches (selection registry
	// keys) used by the ranker-driven experiments (Exp#1, Exp#4,
	// Table IV) and by WEFR everywhere the harness runs it; nil means
	// the paper's five (selection.DefaultSpecs). Unknown names fail
	// New.
	RankerSpecs []string
	// Workers bounds the parallelism of frame extraction, forest
	// fitting, and scoring; 0 means GOMAXPROCS. Results are identical
	// for any value.
	Workers int
	// Faults, when enabled, interposes a deterministic fault injector
	// between the simulated fleet and the dataset cache, and implies
	// Robust. The zero value injects nothing.
	Faults faults.Config
	// Robust runs every pipeline in robust mode: frames are sanitized,
	// failed rankers are dropped from the ensemble, degenerate phases
	// fall back, and all degradation is accounted in Report(). When
	// false (and Faults is disabled) the harness reproduces the legacy
	// path bit for bit.
	Robust bool
}

// DefaultConfig returns a laptop-scale configuration that preserves
// the paper's qualitative results (thousands of drives rather than the
// production 500 K). The prediction forest and sweep grid are scaled
// for a single-core host; pass the paper-fidelity settings (100x13
// forest, 10-point sweep) through the Config fields or the
// cmd/experiments flags when more hardware is available.
func DefaultConfig() Config {
	return Config{
		TotalDrives:   5000,
		Seed:          1,
		AFRScale:      3,
		NegEvery:      80,
		Forest:        forest.Config{NumTrees: 30, MaxDepth: 10},
		SweepPercents: []float64{0.1, 0.3, 0.5, 0.7, 0.9},
	}
}

// TestConfig returns a reduced configuration for unit tests and
// benchmarks: a small fleet, a light forest, and a coarse sweep.
func TestConfig() Config {
	return Config{
		TotalDrives:   1500,
		Seed:          1,
		AFRScale:      4,
		NegEvery:      40,
		Forest:        forest.Config{NumTrees: 15, MaxDepth: 8},
		SweepPercents: []float64{0.2, 0.5, 0.8},
	}
}

func (c Config) withDefaults() Config {
	if c.Days == 0 {
		c.Days = simulate.DefaultDays
	}
	if c.AFRScale == 0 {
		c.AFRScale = 3
	}
	if c.NegEvery == 0 {
		c.NegEvery = 20
	}
	if c.Forest.NumTrees == 0 {
		c.Forest = forest.DefaultConfig()
	}
	if c.SweepPercents == nil {
		for p := 0.1; p <= 1.0001; p += 0.1 {
			c.SweepPercents = append(c.SweepPercents, p)
		}
	}
	if c.Models == nil {
		c.Models = smart.AllModels()
	}
	if c.Faults.Enabled() {
		c.Robust = true
	}
	return c
}

// Harness owns the simulated fleet and reproduces the paper's tables
// and figures against it. All dataset reads go through one append-only
// fleet store, so every experiment and phase shares a single ingest of
// each drive's series.
type Harness struct {
	cfg      Config
	fleet    *simulate.Fleet
	injector *faults.Injector // nil unless Config.Faults is enabled
	report   *engine.RunReport
	stages   *engine.StageReport
	store    *store.Store
	src      *store.Snapshot
}

// New builds the fleet and the harness. Unknown RankerSpecs names are
// rejected here, before any fleet simulation, so CLI surfaces fail fast
// with the registered-ranker menu.
func New(cfg Config) (*Harness, error) {
	cfg = cfg.withDefaults()
	if cfg.RankerSpecs != nil {
		if _, err := selection.ResolveAll(cfg.RankerSpecs, cfg.Seed); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}
	fleet, err := simulate.New(simulate.Config{
		TotalDrives: cfg.TotalDrives,
		Days:        cfg.Days,
		Seed:        cfg.Seed,
		AFRScale:    cfg.AFRScale,
		Models:      cfg.Models,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	h := &Harness{cfg: cfg, fleet: fleet, stages: &engine.StageReport{}}
	var src dataset.Source = dataset.FleetSource{Fleet: fleet}
	if cfg.Faults.Enabled() {
		h.injector = faults.New(src, cfg.Faults)
		src = h.injector
	}
	if cfg.Robust {
		h.report = &engine.RunReport{}
	}
	h.store = store.Open(src, store.Options{Workers: cfg.Workers})
	if err := h.store.AppendThrough(cfg.Days - 1); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	h.src = h.store.Snapshot()
	return h, nil
}

// Source exposes the harness's dataset source (a full-horizon store
// snapshot).
func (h *Harness) Source() dataset.Source { return h.src }

// Store exposes the harness's fleet store (for ingest counters).
func (h *Harness) Store() *store.Store { return h.store }

// StageReport exposes the per-stage timing/row accounting accumulated
// across every pipeline the harness ran.
func (h *Harness) StageReport() *engine.StageReport { return h.stages }

// Fleet exposes the underlying simulated fleet.
func (h *Harness) Fleet() *simulate.Fleet { return h.fleet }

// ReportSnapshot serializes the robust-mode run report accumulated so
// far, pairing the fault injector's per-class injected counts with the
// defects the pipeline detected and the degradations it took. On a
// non-robust harness only the injected counts (if any) are populated.
func (h *Harness) ReportSnapshot() engine.ReportSnapshot {
	var injected map[string]int
	if h.injector != nil {
		injected = h.injector.Stats().Classes()
	}
	return h.report.Snapshot(injected)
}

// Models returns the models under experiment.
func (h *Harness) Models() []smart.ModelID { return h.cfg.Models }

// pipelineConfig assembles the shared pipeline settings.
func (h *Harness) pipelineConfig() engine.Config {
	cfg := engine.Config{
		Forest:   h.cfg.Forest,
		NegEvery: h.cfg.NegEvery,
		Workers:  h.cfg.Workers,
		Seed:     h.cfg.Seed,
		Stages:   h.stages,
	}
	if h.cfg.Robust {
		cfg.Robust = &engine.RobustOpts{
			Sanitize: dataset.SanitizeOpts{MissMask: true},
			Report:   h.report,
		}
	}
	return cfg
}

// phases returns the paper's three testing phases for the configured
// span, trimmed to the configured PhaseCount (latest phases kept).
func (h *Harness) phases() []engine.Phase {
	all := engine.StandardPhases(h.cfg.Days)
	if h.cfg.PhaseCount > 0 && h.cfg.PhaseCount < len(all) {
		return all[len(all)-h.cfg.PhaseCount:]
	}
	return all
}

// rankers resolves the harness's preliminary approaches through the
// selection registry; a nil RankerSpecs means the paper's five.
func (h *Harness) rankers() ([]selection.Ranker, error) {
	specs := h.cfg.RankerSpecs
	if specs == nil {
		specs = selection.DefaultSpecs()
	}
	rankers, err := selection.ResolveAll(specs, h.cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return rankers, nil
}

// selectionFrame builds the full-period original-feature frame used by
// the characterization tables (III, IV, V).
func (h *Harness) selectionFrame(m smart.ModelID) (frameWithModel, error) {
	opts := dataset.FrameOpts{
		Model: m, NegEvery: h.cfg.NegEvery, Workers: h.cfg.Workers,
	}
	if h.cfg.Robust {
		// Maskless: characterization works on pure feature columns.
		opts.Sanitize = &dataset.SanitizeOpts{Counter: h.report.Counter()}
	}
	fr, err := dataset.Frame(h.src, opts)
	if err != nil {
		return frameWithModel{}, fmt.Errorf("experiments: frame for %v: %w", m, err)
	}
	return frameWithModel{fr: fr, model: m}, nil
}
