// Package complexity implements the data-complexity measures WEFR uses
// to choose the number of selected features automatically (Section IV-C
// of the paper): the maximum Fisher's discriminant ratio (F1), the
// volume of the overlap region (F2), the maximum individual feature
// efficiency (F3), their ensemble
//
//	F = (1/F1 + F2 + 1/F3) / 3,
//
// and the cumulative-complexity cutoff scan of Seijo-Pardo et al.
// (CAEPIA 2016): e = alpha*F + (1-alpha)*xi, with partial and total
// cumulative sums E_p and E, a warm start of log2(#features) features,
// and a break as soon as E_p >= E.
//
// All three measures are computed per single feature over a binary
// class split. F1 and F3 are "higher is simpler", so they enter the
// ensemble inverted; F2 is "lower is simpler". Uninformative features
// drive 1/F1 and 1/F3 toward infinity, which is exactly what makes the
// cumulative scan terminate at the informative/trivial boundary; both
// inverses are clamped at InverseCap to keep the arithmetic finite.
package complexity

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Errors returned by the complexity measures.
var (
	// ErrEmptyInput indicates zero samples.
	ErrEmptyInput = errors.New("complexity: empty input")
	// ErrLengthMismatch indicates feature and label slices of different
	// lengths.
	ErrLengthMismatch = errors.New("complexity: length mismatch")
	// ErrSingleClass indicates input with fewer than two classes.
	ErrSingleClass = errors.New("complexity: need both classes present")
)

// InverseCap bounds 1/F1 and 1/F3 in the ensemble for degenerate
// features (zero discriminant ratio or zero efficiency).
const InverseCap = 100.0

// errMissingClass indicates that both classes are present in the labels
// but missing (non-finite) feature values left one class with no finite
// samples. Ensemble maps it to MaxEnsemble rather than failing.
var errMissingClass = errors.New("complexity: class has no finite samples")

// splitClasses partitions x by binary label, dropping missing
// (non-finite) values. Both classes share one backing array.
func splitClasses(x []float64, y []int) (neg, pos []float64, err error) {
	if len(x) != len(y) {
		return nil, nil, fmt.Errorf("%w: %d values vs %d labels", ErrLengthMismatch, len(x), len(y))
	}
	if len(x) == 0 {
		return nil, nil, ErrEmptyInput
	}
	hadPos, hadNeg := false, false
	nPos, nNeg := 0, 0
	for i, v := range x {
		finite := v-v == 0
		if y[i] == 1 {
			hadPos = true
			if finite {
				nPos++
			}
		} else {
			hadNeg = true
			if finite {
				nNeg++
			}
		}
	}
	if !hadPos || !hadNeg {
		return nil, nil, ErrSingleClass
	}
	if nPos == 0 || nNeg == 0 {
		return nil, nil, errMissingClass
	}
	buf := make([]float64, nNeg+nPos)
	neg, pos = buf[:0:nNeg], buf[nNeg:nNeg]
	for i, v := range x {
		if v-v != 0 {
			continue
		}
		if y[i] == 1 {
			pos = append(pos, v)
		} else {
			neg = append(neg, v)
		}
	}
	return neg, pos, nil
}

func meanVar(xs []float64) (mean, variance float64) {
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	for _, v := range xs {
		d := v - mean
		variance += d * d
	}
	variance /= float64(len(xs))
	return mean, variance
}

// RangeTrim is the per-tail trimming fraction used when computing a
// class's value range for F2 and F3. Strict min/max would let a single
// outlier sample inflate the overlap region to the whole axis and cap
// every feature's complexity; trimming to the 5th/95th order statistic
// keeps the measures meaningful on noisy production-scale data. For
// fewer than ~20 samples the trim rounds to zero and the range is the
// exact min/max.
const RangeTrim = 0.05

// classRange returns the trimmed value range of xs: the k-th smallest
// and k-th largest order statistics with k = floor(RangeTrim*(n-1)).
// It sorts xs in place when k > 0.
func classRange(xs []float64) (lo, hi float64) {
	n := len(xs)
	k := int(RangeTrim * float64(n-1))
	if k == 0 {
		lo, hi = xs[0], xs[0]
		for _, v := range xs[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return lo, hi
	}
	sort.Float64s(xs)
	return xs[k], xs[n-1-k]
}

// classRanges holds the trimmed ranges of the two classes.
type classRanges struct{ lo0, hi0, lo1, hi1 float64 }

// rangesOf computes the trimmed class ranges, reordering neg and pos.
func rangesOf(neg, pos []float64) classRanges {
	var r classRanges
	r.lo0, r.hi0 = classRange(neg)
	r.lo1, r.hi1 = classRange(pos)
	return r
}

// FisherRatio returns F1 for one feature: (mu0-mu1)^2 / (var0+var1).
// Higher means the classes are better separated (simpler). When both
// variances are zero it returns InverseCap for distinct means (perfect
// separation) and 0 for identical means.
func FisherRatio(x []float64, y []int) (float64, error) {
	neg, pos, err := splitClasses(x, y)
	if err != nil {
		return 0, err
	}
	return fisher(neg, pos), nil
}

// fisher is F1 over split classes. Its sums run in input order, so it
// must see neg and pos before rangesOf sorts them.
func fisher(neg, pos []float64) float64 {
	m0, v0 := meanVar(neg)
	m1, v1 := meanVar(pos)
	num := (m0 - m1) * (m0 - m1)
	den := v0 + v1
	if den == 0 {
		if num == 0 {
			return 0
		}
		return InverseCap
	}
	return num / den
}

// OverlapVolume returns F2 for one feature: the length of the overlap
// of the two class ranges divided by the length of their union. Lower
// means simpler. Point distributions that coincide return 1 (full
// overlap); disjoint ranges return 0.
func OverlapVolume(x []float64, y []int) (float64, error) {
	neg, pos, err := splitClasses(x, y)
	if err != nil {
		return 0, err
	}
	return overlapVolume(rangesOf(neg, pos)), nil
}

func overlapVolume(r classRanges) float64 {
	overlap := math.Min(r.hi0, r.hi1) - math.Max(r.lo0, r.lo1)
	if overlap < 0 {
		overlap = 0
	}
	union := math.Max(r.hi0, r.hi1) - math.Min(r.lo0, r.lo1)
	if union == 0 {
		// Every value identical in both classes: total overlap.
		return 1
	}
	return overlap / union
}

// FeatureEfficiency returns F3 for one feature: the fraction of samples
// lying outside the class-overlap interval, i.e. separable using this
// feature alone. Higher means simpler.
func FeatureEfficiency(x []float64, y []int) (float64, error) {
	neg, pos, err := splitClasses(x, y)
	if err != nil {
		return 0, err
	}
	return featureEfficiency(neg, pos, rangesOf(neg, pos)), nil
}

// featureEfficiency is F3 over split classes; missing values were
// dropped by the split, so they are neither inside nor separable.
func featureEfficiency(neg, pos []float64, r classRanges) float64 {
	oLo := math.Max(r.lo0, r.lo1)
	oHi := math.Min(r.hi0, r.hi1)
	if oLo > oHi {
		return 1 // disjoint ranges: everything separable
	}
	inside := 0
	for _, xs := range [2][]float64{neg, pos} {
		for _, v := range xs {
			if v >= oLo && v <= oHi {
				inside++
			}
		}
	}
	return 1 - float64(inside)/float64(len(neg)+len(pos))
}

// MaxEnsemble is the Ensemble value assigned to a feature whose finite
// samples do not cover both classes (e.g. an all-missing column): the
// maximum of (1/F1 + F2 + 1/F3)/3 with both inverses at InverseCap and
// total overlap. Such a feature is maximally complex — it carries no
// usable signal — and ranking it as such keeps the cumulative cutoff
// scan well-defined instead of erroring out.
const MaxEnsemble = (InverseCap + 1 + InverseCap) / 3

// Ensemble returns the combined complexity F = (1/F1 + F2 + 1/F3)/3
// for one feature. The inverse terms are clamped at InverseCap. Lower F
// means a simpler (more useful) feature. Missing (non-finite) values
// are ignored; if they leave a class with no finite samples the feature
// is scored MaxEnsemble.
func Ensemble(x []float64, y []int) (float64, error) {
	neg, pos, err := splitClasses(x, y)
	if errors.Is(err, errMissingClass) {
		return MaxEnsemble, nil
	}
	if err != nil {
		return 0, err
	}
	f1 := fisher(neg, pos)
	r := rangesOf(neg, pos)
	return (capInv(f1) + overlapVolume(r) + capInv(featureEfficiency(neg, pos, r))) / 3, nil
}

// capInv returns min(1/v, InverseCap), treating non-positive v as fully
// complex.
func capInv(v float64) float64 {
	if v <= 0 {
		return InverseCap
	}
	inv := 1 / v
	if inv > InverseCap {
		return InverseCap
	}
	return inv
}

// CutoffConfig parameterizes the automated feature-count scan.
type CutoffConfig struct {
	// Alpha weights the complexity term against the scanned-percentage
	// term in e = Alpha*F + (1-Alpha)*xi. The paper uses 0.75; values
	// outside (0, 1] fall back to it.
	Alpha float64
	// MinFeatures overrides the warm-start count; 0 means
	// ceil(log2(#features)) per the paper.
	MinFeatures int
	// JumpFactor is the stopping sensitivity: the scan stops at the
	// first feature whose e exceeds JumpFactor times the running mean
	// of the accepted features' e. 0 means DefaultJumpFactor. See
	// AutoCutoff for why this replaces the paper's literal E_p/E
	// recursion.
	JumpFactor float64
}

// DefaultJumpFactor is the default stopping sensitivity of AutoCutoff.
const DefaultJumpFactor = 2.5

// DefaultCutoffConfig returns the paper's settings (alpha = 0.75,
// log2 warm start).
func DefaultCutoffConfig() CutoffConfig { return CutoffConfig{Alpha: 0.75} }

func (c CutoffConfig) alpha() float64 {
	if c.Alpha <= 0 || c.Alpha > 1 {
		return 0.75
	}
	return c.Alpha
}

func (c CutoffConfig) warmStart(nf int) int {
	k := c.MinFeatures
	if k <= 0 {
		k = int(math.Ceil(math.Log2(float64(nf))))
	}
	if k < 1 {
		k = 1
	}
	if k > nf {
		k = nf
	}
	return k
}

// AutoCutoff determines the number of features to select. ensembleF
// must hold the Ensemble complexity of each feature in final-ranking
// order (best feature first). It returns the selected feature count n,
// 1 <= n <= len(ensembleF).
//
// Per Section IV-C, each feature contributes e_i = alpha*F_i +
// (1-alpha)*xi_i, where xi_i = i/#features is the scanned percentage,
// and the top ceil(log2(#features)) features are always accepted (the
// warm start). The paper then describes cumulative sums E_p := E_p + e
// and E := E + E_p with a stop at E_p >= E; taken literally, E grows by
// E_p at every accepted step, so E_p >= E can only trigger within a
// step or two of the warm start (E(i) - E_p(i) = sum of all earlier
// E_p, which grows quadratically while E_p grows linearly), and in
// practice the scan never terminates on real data. This implementation
// keeps the per-feature measure e and warm start but stops at the
// first feature whose e exceeds JumpFactor times the running mean of
// the accepted features' e — the same "stop when the next feature's
// complexity breaks from the accumulated profile" intent, with a rule
// that actually bites at the informative/trivial boundary.
func AutoCutoff(ensembleF []float64, cfg CutoffConfig) (int, error) {
	nf := len(ensembleF)
	if nf == 0 {
		return 0, ErrEmptyInput
	}
	alpha := cfg.alpha()
	warm := cfg.warmStart(nf)
	jump := cfg.JumpFactor
	if jump <= 0 {
		jump = DefaultJumpFactor
	}

	e := func(i int) float64 {
		xi := float64(i+1) / float64(nf)
		return alpha*ensembleF[i] + (1-alpha)*xi
	}

	var sum float64
	for i := 0; i < warm; i++ {
		sum += e(i)
	}
	n := warm
	for i := warm; i < nf; i++ {
		ei := e(i)
		if ei > jump*sum/float64(n) {
			break
		}
		sum += ei
		n = i + 1
	}
	return n, nil
}

// FeatureComplexities computes Ensemble for a set of feature columns in
// the given order. It is a convenience wrapper used by the WEFR core.
func FeatureComplexities(cols [][]float64, y []int) ([]float64, error) {
	out := make([]float64, len(cols))
	for i, col := range cols {
		f, err := Ensemble(col, y)
		if err != nil {
			return nil, fmt.Errorf("complexity: feature %d: %w", i, err)
		}
		out[i] = f
	}
	return out, nil
}
