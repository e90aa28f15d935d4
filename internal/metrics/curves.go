package metrics

import (
	"errors"
	"sort"
)

// Errors returned by curve construction.
var (
	// ErrNoScores indicates empty score/label input.
	ErrNoScores = errors.New("metrics: no scores")
	// ErrCurveSingleClass indicates scores whose labels contain only
	// one class, for which ROC is undefined.
	ErrCurveSingleClass = errors.New("metrics: need both classes for a curve")
)

// ROCPoint is one operating point of a ROC curve.
type ROCPoint struct {
	Threshold float64
	TPR       float64 // true-positive rate (recall)
	FPR       float64 // false-positive rate
}

// ROC computes the ROC curve of probability scores against binary
// labels: one point per distinct threshold, ordered from the most
// permissive (threshold below every score) to the strictest. The first
// point is (1, 1) and the last (0, 0).
func ROC(scores []float64, labels []int) ([]ROCPoint, error) {
	n := len(scores)
	if n == 0 || n != len(labels) {
		return nil, ErrNoScores
	}
	pos, neg := 0, 0
	for _, y := range labels {
		if y == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return nil, ErrCurveSingleClass
	}

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })

	out := []ROCPoint{{Threshold: scores[idx[0]] + 1, TPR: 0, FPR: 0}}
	tp, fp := 0, 0
	for k := 0; k < n; k++ {
		i := idx[k]
		if labels[i] == 1 {
			tp++
		} else {
			fp++
		}
		// Emit a point only at threshold boundaries (distinct scores).
		if k+1 < n && scores[idx[k+1]] == scores[i] {
			continue
		}
		out = append(out, ROCPoint{
			Threshold: scores[i],
			TPR:       float64(tp) / float64(pos),
			FPR:       float64(fp) / float64(neg),
		})
	}
	return out, nil
}

// AUC computes the area under the ROC curve by trapezoidal
// integration. 0.5 is chance level, 1.0 perfect ranking.
func AUC(scores []float64, labels []int) (float64, error) {
	curve, err := ROC(scores, labels)
	if err != nil {
		return 0, err
	}
	area := 0.0
	for i := 1; i < len(curve); i++ {
		dx := curve[i].FPR - curve[i-1].FPR
		area += dx * (curve[i].TPR + curve[i-1].TPR) / 2
	}
	return area, nil
}
