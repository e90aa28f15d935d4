package engine

import (
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/metrics"
)

// calibDrive is one validation drive's input to threshold
// calibration: its failure day (-1 when healthy), its first scored
// day, and its highest probability on the days each group scored (NaN
// for a group that scored none of its days).
type calibDrive struct {
	failDay, first int
	groupMax       []float64
}

// minGroupCalibration is the minimum number of failing validation
// drives a group needs for its own threshold; below it the group
// inherits the pooled threshold.
const minGroupCalibration = 3

// calibrateThresholds picks one alarm threshold per group: the largest
// threshold whose drive-level recall on that group's validation
// outcomes is at least targetRecall. Wear groups train on populations
// with very different base rates, so their forests' probability scales
// differ; a shared threshold would flood the denser group with false
// alarms. Groups with too few failing validation drives inherit the
// pooled threshold (0.5 when no failing drives exist at all).
func calibrateThresholds(drives []calibDrive, numGroups int, targetRecall float64) []float64 {
	pick := func(failingMax []float64) (float64, bool) {
		if len(failingMax) == 0 {
			return 0.5, false
		}
		// Recall at threshold t = fraction of failing drives with max
		// prob >= t. Covering the top `need` drives requires the
		// ceiling: flooring would cover one drive too few and land
		// strictly below the target (1 of 4 drives is recall 0.25,
		// not 0.3).
		sort.Sort(sort.Reverse(sort.Float64Slice(failingMax)))
		need := int(math.Ceil(float64(len(failingMax)) * targetRecall))
		if need < 1 {
			need = 1
		}
		if need > len(failingMax) {
			need = len(failingMax)
		}
		t := failingMax[need-1]
		// Any threshold in (failingMax[need], failingMax[need-1]]
		// meets the target on validation; the interval midpoint
		// maximizes the margin in both directions instead of sitting
		// exactly on one validation drive's score, which generalizes
		// to unseen drives scoring slightly lower.
		if need < len(failingMax) && failingMax[need] < t {
			t = (t + failingMax[need]) / 2
		}
		if t <= 0 {
			t = 0.05
		}
		return t, len(failingMax) >= minGroupCalibration
	}

	var pooled []float64
	perGroup := make([][]float64, numGroups)
	for _, cd := range drives {
		if cd.failDay < 0 || cd.failDay < cd.first {
			continue
		}
		var best float64
		for g, m := range cd.groupMax {
			if math.IsNaN(m) {
				continue
			}
			best = max(best, m)
			perGroup[g] = append(perGroup[g], m)
		}
		pooled = append(pooled, best)
	}
	pooledT, _ := pick(pooled)
	out := make([]float64, numGroups)
	for g := 0; g < numGroups; g++ {
		if t, enough := pick(perGroup[g]); enough {
			out[g] = t
		} else {
			out[g] = pooledT
		}
	}
	return out
}

// alarmFold folds one drive's scored days, fed in ascending day order,
// into its DriveOutcome: the drive alarms on the first day whose
// probability clears its group's threshold, and reports the wear
// index of that day (or of its last scored day when no alarm fired).
type alarmFold struct {
	first   int
	mwi     float64
	maxProb float64
}

func newAlarmFold() alarmFold { return alarmFold{first: -1} }

// add folds one scored day.
func (a *alarmFold) add(day int, p, mwi, threshold float64) {
	if p > a.maxProb {
		a.maxProb = p
	}
	if a.first < 0 {
		a.mwi = mwi
		if p >= threshold {
			a.first = day
		}
	}
}

// outcome returns the folded drive's outcome for a window ending at
// testHi. Failures more than PredictionWindow days past the window end
// belong to later windows and are treated as healthy here.
func (a *alarmFold) outcome(id, failDay, testHi int) DriveOutcome {
	if failDay > testHi+dataset.PredictionWindow {
		failDay = -1
	}
	return DriveOutcome{
		Pred:    metrics.DrivePrediction{DriveID: id, FirstAlarmDay: a.first, FailDay: failDay},
		MWI:     a.mwi,
		MaxProb: a.maxProb,
	}
}
