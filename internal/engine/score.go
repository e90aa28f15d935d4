package engine

import (
	"errors"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/smart"
)

// driveScore accumulates one drive's scored days within a window.
type driveScore struct {
	ref   dataset.DriveRef
	days  []int
	probs []float64
	mwis  []float64
	group []int // which group's model scored each day
}

// maxProbIn returns the drive's maximum probability among days scored
// by the given group, and whether it had any such day.
func (ds *driveScore) maxProbIn(g int) (float64, bool) {
	best, any := 0.0, false
	for k, gi := range ds.group {
		if gi != g {
			continue
		}
		any = true
		if ds.probs[k] > best {
			best = ds.probs[k]
		}
	}
	return best, any
}

// refIndexer is satisfied by sources that cache the drive-ID-to-ref
// map (store snapshots); other sources fall back to building it once
// per scoring pass.
type refIndexer interface {
	RefIndex(m smart.ModelID) map[int]dataset.DriveRef
}

// refIndex returns the model's drive-ID-to-ref map, served from the
// source's cache when it has one.
func refIndex(src dataset.Source, model smart.ModelID) map[int]dataset.DriveRef {
	if ri, ok := src.(refIndexer); ok {
		if m := ri.RefIndex(model); m != nil {
			return m
		}
	}
	refs := src.DrivesOf(model)
	out := make(map[int]dataset.DriveRef, len(refs))
	for _, r := range refs {
		out[r.ID] = r
	}
	return out
}

// scorePhase scores every drive-day of [lo, hi] with the per-group
// models and groups the probabilities by drive (days ascending). The
// second return is the total number of drive-day rows scored.
//
// It is the training-side scoring path (validation calibration and
// test scoring inside RunPhase, and journal replay), and it keeps
// dataset.Frame because a robust Config sanitizes each drive's series
// and appends ".miss" mask columns there. A snapshot Scorer never
// sanitizes, so it scores in one pass over the drives instead (see
// Scorer.ScoreInto).
func scorePhase(src dataset.Source, model smart.ModelID, groups []group, lo, hi int, cfg Config) (map[int]*driveScore, int, error) {
	out := make(map[int]*driveScore)
	rows := 0
	// One ref index per pass (cached on store snapshots), not one per
	// group.
	refs := refIndex(src, model)
	for gi, g := range groups {
		fr, err := dataset.Frame(src, dataset.FrameOpts{
			Model: model, DayLo: lo, DayHi: hi, NegEvery: 1,
			Features: g.feats, Expand: true, Windows: cfg.Windows,
			MWIBelow: g.mwiBelow, MWIAtLeast: g.mwiAtLeast,
			Workers: cfg.Workers, Sanitize: cfg.sanitizeOpts(true),
		})
		if errors.Is(err, dataset.ErrNoSamples) {
			continue
		}
		if err != nil {
			return nil, rows, err
		}
		cols := make([][]float64, fr.NumFeatures())
		for i := range cols {
			cols[i] = fr.Col(i)
		}
		probs := make([]float64, fr.NumRows())
		if err := g.model.PredictProbaBatch(cols, probs); err != nil {
			return nil, rows, err
		}
		rows += fr.NumRows()
		for i := 0; i < fr.NumRows(); i++ {
			m := fr.Meta(i)
			ds, ok := out[m.DriveID]
			if !ok {
				ds = &driveScore{ref: refs[m.DriveID]}
				out[m.DriveID] = ds
			}
			ds.days = append(ds.days, m.Day)
			ds.probs = append(ds.probs, probs[i])
			ds.mwis = append(ds.mwis, m.MWI)
			ds.group = append(ds.group, gi)
		}
	}
	// Within-drive days arrive ascending per group but groups can
	// interleave (a drive can cross the MWI threshold mid-phase).
	for _, ds := range out {
		sortDriveScore(ds)
	}
	return out, rows, nil
}

// sortDriveScore orders a drive's scored days ascending, in place. The
// rows are a merge of at most numGroups already-ascending runs — and
// within a drive each day is scored by exactly one group, so days are
// unique — which makes insertion sort nearly linear here and, unlike
// an index sort, allocation-free.
func sortDriveScore(ds *driveScore) {
	for i := 1; i < len(ds.days); i++ {
		for j := i; j > 0 && ds.days[j] < ds.days[j-1]; j-- {
			ds.days[j], ds.days[j-1] = ds.days[j-1], ds.days[j]
			ds.probs[j], ds.probs[j-1] = ds.probs[j-1], ds.probs[j]
			ds.mwis[j], ds.mwis[j-1] = ds.mwis[j-1], ds.mwis[j]
			ds.group[j], ds.group[j-1] = ds.group[j-1], ds.group[j]
		}
	}
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
func calibrateThresholds(scores map[int]*driveScore, numGroups int, targetRecall float64) []float64 {
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
	for _, ds := range scores {
		if !ds.ref.Failed() || ds.ref.FailDay < ds.days[0] {
			continue
		}
		var best float64
		for _, p := range ds.probs {
			if p > best {
				best = p
			}
		}
		pooled = append(pooled, best)
		for g := 0; g < numGroups; g++ {
			if m, ok := ds.maxProbIn(g); ok {
				perGroup[g] = append(perGroup[g], m)
			}
		}
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

// finalizeOutcomes converts scored drives into drive-level outcomes
// sorted by drive ID, folding each drive's days in ascending order
// with alarmFold.
func finalizeOutcomes(scores map[int]*driveScore, thresholds []float64, testHi int) []DriveOutcome {
	ids := make([]int, 0, len(scores))
	for id := range scores {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]DriveOutcome, 0, len(scores))
	for _, id := range ids {
		ds := scores[id]
		fold := newAlarmFold()
		for k, p := range ds.probs {
			fold.add(ds.days[k], p, ds.mwis[k], thresholds[ds.group[k]])
		}
		out = append(out, fold.outcome(id, ds.ref.FailDay, testHi))
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
