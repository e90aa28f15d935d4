package engine

import (
	"errors"
	"fmt"

	"repro/internal/flat"
	"repro/internal/forest"
	"repro/internal/frame"
	"repro/internal/gbdt"
)

// Predictor selects the prediction-model family the engine trains on
// the selected features. The paper uses Random Forest (as do the prior
// studies it follows); the gradient-boosted alternative is provided as
// an extension and exercised by the ablation benchmarks.
type Predictor int

// Prediction model families.
const (
	// PredictorForest trains the paper's Random Forest (default).
	PredictorForest Predictor = iota + 1
	// PredictorGBDT trains the XGBoost-style boosted trees instead.
	PredictorGBDT
)

// String names the predictor for reports.
func (p Predictor) String() string {
	switch p {
	case PredictorForest:
		return "random-forest"
	case PredictorGBDT:
		return "gbdt"
	default:
		return fmt.Sprintf("Predictor(%d)", int(p))
	}
}

// ErrUnknownPredictor indicates an unsupported Predictor value.
var ErrUnknownPredictor = errors.New("pipeline: unknown predictor")

// groupModel is a trained group model in its compiled flat form — the
// only form the engine scores with or persists: *flat.Forest for
// PredictorForest, *flat.Model for PredictorGBDT.
type groupModel interface {
	// PredictProbaBatch scores the column-major batch into out, whose
	// length must equal the row count.
	PredictProbaBatch(cols [][]float64, out []float64) error
	// MarshalBinary serializes the compiled model for a ModelSnapshot.
	MarshalBinary() ([]byte, error)
	// NumFeatures is the model-input column count.
	NumFeatures() int
}

// unmarshalModel decodes a snapshot group's compiled flat payload.
func unmarshalModel(family Predictor, data []byte, workers int) (groupModel, error) {
	switch family {
	case PredictorForest:
		fl, err := flat.UnmarshalForest(data)
		if err != nil {
			return nil, err
		}
		fl.Workers = workers
		return fl, nil
	case PredictorGBDT:
		fl, err := flat.UnmarshalModel(data)
		if err != nil {
			return nil, err
		}
		fl.Workers = workers
		return fl, nil
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnknownPredictor, family)
	}
}

// fitModel trains the configured prediction model on an expanded frame
// and compiles it for flat scoring. Compilation is total on cut count;
// a structurally uncompilable model (flat.ErrNotCompilable) fails the
// fit.
func fitModel(fr *frame.Frame, cfg Config) (groupModel, error) {
	switch cfg.predictor() {
	case PredictorForest:
		f, err := forest.Fit(frameCols(fr), fr.Labels(), cfg.Forest)
		if err != nil {
			return nil, err
		}
		fl, err := flat.CompileForest(f)
		if err != nil {
			return nil, err
		}
		fl.Workers = cfg.Workers
		return fl, nil
	case PredictorGBDT:
		g := cfg.GBDT
		if g.NumRounds == 0 {
			d := gbdt.DefaultConfig()
			d.MaxBins = g.MaxBins
			g = d
		}
		m, err := gbdt.Fit(frameCols(fr), fr.Labels(), g)
		if err != nil {
			return nil, err
		}
		fl, err := flat.CompileModel(m)
		if err != nil {
			return nil, err
		}
		fl.Workers = cfg.Workers
		return fl, nil
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnknownPredictor, cfg.Predictor)
	}
}

// frameCols returns the frame's columns in model-input order.
func frameCols(fr *frame.Frame) [][]float64 {
	cols := make([][]float64, fr.NumFeatures())
	for i := range cols {
		cols[i] = fr.Col(i)
	}
	return cols
}
