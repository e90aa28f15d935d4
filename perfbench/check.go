package main

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/store"
)

// fleetSummary is what /v1/score/fleet reports for one day.
type fleetSummary struct {
	Drives, Alarms int
	MeanProb       float64
}

// oracle scores drive-days offline with engine.Scorer, on the daemon's
// own registry snapshot and an identically seeded, fully ingested
// store: the path the engine itself takes, with no HTTP, coalescer or
// serving code in between.
type oracle struct {
	scorer *engine.Scorer
	snap   *store.Snapshot
	buf    engine.ScoreBuf
	probs  map[int]map[int]float64 // day -> drive -> probability
	fleets map[int]fleetSummary
}

func newOracle(scorer *engine.Scorer, snap *store.Snapshot) *oracle {
	return &oracle{scorer: scorer, snap: snap, probs: make(map[int]map[int]float64), fleets: make(map[int]fleetSummary)}
}

// day scores every drive on day d once and caches the result.
func (o *oracle) day(d int) error {
	if _, ok := o.probs[d]; ok {
		return nil
	}
	outs, err := o.scorer.ScoreInto(o.snap, d, d, &o.buf)
	if err != nil {
		return fmt.Errorf("oracle day %d: %w", d, err)
	}
	probs := make(map[int]float64, len(outs))
	for _, out := range outs {
		probs[out.Pred.DriveID] = out.MaxProb
	}
	o.probs[d] = probs
	o.fleets[d] = summarizeFleet(outs)
	return nil
}

// summarizeFleet condenses a one-day pass the way /v1/score/fleet
// does: drive count, alarmed drives, and the mean probability summed
// in outcome order.
func summarizeFleet(outs []engine.DriveOutcome) fleetSummary {
	sum := fleetSummary{Drives: len(outs)}
	var total float64
	for _, out := range outs {
		total += out.MaxProb
		if out.Pred.FirstAlarmDay >= 0 {
			sum.Alarms++
		}
	}
	if sum.Drives > 0 {
		sum.MeanProb = total / float64(sum.Drives)
	}
	return sum
}

func (o *oracle) prob(drive, d int) (float64, error) {
	if err := o.day(d); err != nil {
		return 0, err
	}
	p, ok := o.probs[d][drive]
	if !ok {
		return 0, fmt.Errorf("oracle: drive %d not scored on day %d", drive, d)
	}
	return p, nil
}

func (o *oracle) fleet(d int) (fleetSummary, error) {
	if err := o.day(d); err != nil {
		return fleetSummary{}, err
	}
	return o.fleets[d], nil
}

// checker compares daemon responses with the oracle bit for bit. Each
// mismatch is one failed operation.
type checker struct {
	prob    func(drive, day int) (float64, error)
	fleet   func(day int) (fleetSummary, error)
	thresh  func(group int) float64
	checked int
	bad     int
	notes   []string
}

func newChecker(o *oracle) *checker {
	return &checker{prob: o.prob, fleet: o.fleet, thresh: o.scorer.GroupThreshold}
}

func (c *checker) fail(format string, args ...any) {
	c.bad++
	if len(c.notes) < 5 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// score checks one scored drive-day: the probability must equal the
// oracle's to the bit, and the alarm must follow the group threshold.
func (c *checker) score(r serve.ScoreResponse, drive, day int) {
	c.checked++
	want, err := c.prob(drive, day)
	if err != nil {
		c.fail("drive %d day %d: %v", drive, day, err)
		return
	}
	if math.Float64bits(r.Prob) != math.Float64bits(want) {
		c.fail("drive %d day %d: prob %v, offline %v", drive, day, r.Prob, want)
		return
	}
	if r.Alarm != (r.Prob >= c.thresh(r.Group)) {
		c.fail("drive %d day %d: alarm %v at prob %v, threshold %v", drive, day, r.Alarm, r.Prob, c.thresh(r.Group))
	}
}

// fleetPass checks one fleet response against the oracle's pass over
// the same day.
func (c *checker) fleetPass(r serve.FleetResponse) {
	c.checked++
	want, err := c.fleet(r.Day)
	if err != nil {
		c.fail("fleet day %d: %v", r.Day, err)
		return
	}
	if r.Drives != want.Drives || r.Alarms != want.Alarms || math.Float64bits(r.MeanProb) != math.Float64bits(want.MeanProb) {
		c.fail("fleet day %d: drives %d alarms %d mean %v, offline %d %d %v",
			r.Day, r.Drives, r.Alarms, r.MeanProb, want.Drives, want.Alarms, want.MeanProb)
	}
}
