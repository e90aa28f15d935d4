package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail: the
// tail is the highest percentile the sample supports with at least
// this many samples beyond it.
const tailBeyond = 10

// sortedMs converts durations to ascending milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of
// ascending samples, or NaN for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is median over durations, in the given unit.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// tailStat is the highest percentile of a sample that still has
// tailBeyond samples above it.
type tailStat struct {
	Value float64 // the sample at the tail index
	Pct   float64 // its percentile: share of samples at or below it, in %
	N     int     // sample count
	OK    bool    // false when the sample is too small to have a tail
}

// tail computes the tail of ascending samples: the sample at index
// n-1-tailBeyond, so exactly tailBeyond samples follow it.
func tail(sorted []float64) tailStat {
	n := len(sorted)
	if n <= tailBeyond {
		return tailStat{N: n}
	}
	k := n - 1 - tailBeyond
	return tailStat{Value: sorted[k], Pct: 100 * float64(k+1) / float64(n), N: n, OK: true}
}

func (t tailStat) String() string {
	if !t.OK {
		return fmt.Sprintf("n/a (n=%d, need >%d)", t.N, tailBeyond)
	}
	return fmt.Sprintf("%.3f ms at p%.2f (n=%d, %d beyond)", t.Value, t.Pct, t.N, tailBeyond)
}

// ratio is a share or rate reported together with its base.
type ratio struct {
	Num, Den float64
}

// Value is Num/Den, or 0 when the base is empty.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4g (%g / %g)", r.Value(), r.Num, r.Den)
}
