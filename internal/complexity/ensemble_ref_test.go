package complexity

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refEnsemble is Ensemble as three separate measures, each splitting
// the classes afresh and taking each trimmed range from a sorted copy,
// where Ensemble shares one split and one in-place sort per class.
func refEnsemble(x []float64, y []int) (float64, error) {
	split := func() (neg, pos []float64) {
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
		return neg, pos
	}
	rng := func(xs []float64) (lo, hi float64) {
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
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return sorted[k], sorted[n-1-k]
	}
	if _, _, err := splitClasses(x, y); errors.Is(err, errMissingClass) {
		return MaxEnsemble, nil
	} else if err != nil {
		return 0, err
	}

	neg, pos := split()
	m0, v0 := meanVar(neg)
	m1, v1 := meanVar(pos)
	var f1 float64
	if num, den := (m0-m1)*(m0-m1), v0+v1; den == 0 {
		if num != 0 {
			f1 = InverseCap
		}
	} else {
		f1 = num / den
	}

	neg, pos = split()
	lo0, hi0 := rng(neg)
	lo1, hi1 := rng(pos)
	overlap := math.Min(hi0, hi1) - math.Max(lo0, lo1)
	if overlap < 0 {
		overlap = 0
	}
	f2 := 1.0
	if union := math.Max(hi0, hi1) - math.Min(lo0, lo1); union != 0 {
		f2 = overlap / union
	}

	neg, pos = split()
	lo0, hi0 = rng(neg)
	lo1, hi1 = rng(pos)
	oLo, oHi := math.Max(lo0, lo1), math.Min(hi0, hi1)
	f3 := 1.0
	if oLo <= oHi {
		inside := 0
		for _, v := range x {
			if v-v == 0 && v >= oLo && v <= oHi {
				inside++
			}
		}
		f3 = 1 - float64(inside)/float64(len(neg)+len(pos))
	}
	return (capInv(f1) + f2 + capInv(f3)) / 3, nil
}

// threeCall is Ensemble through the public per-measure functions.
func threeCall(x []float64, y []int) (float64, error) {
	f1, err := FisherRatio(x, y)
	if errors.Is(err, errMissingClass) {
		return MaxEnsemble, nil
	}
	if err != nil {
		return 0, err
	}
	f2, err := OverlapVolume(x, y)
	if err != nil {
		return 0, err
	}
	f3, err := FeatureEfficiency(x, y)
	if err != nil {
		return 0, err
	}
	return (capInv(f1) + f2 + capInv(f3)) / 3, nil
}

// TestEnsembleMatchesReference holds Ensemble to refEnsemble and to the
// three-call form bit for bit, on columns mixing ties, signed zeros,
// ±Inf and NaN, with sizes on both sides of the range-trim threshold.
func TestEnsembleMatchesReference(t *testing.T) {
	pool := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, 3, 0.1, 0.2}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(120)
		x := make([]float64, n)
		y := make([]int, n)
		distinct := 1 + rng.Intn(len(pool))
		posRate := rng.Intn(4)
		for i := range x {
			if rng.Intn(4) < posRate {
				y[i] = 1
			}
			if rng.Intn(3) == 0 {
				x[i] = rng.NormFloat64() * 1e3
			} else {
				x[i] = pool[rng.Intn(distinct)]
			}
		}
		x0 := append([]float64(nil), x...)
		got, errGot := Ensemble(x, y)
		want, errWant := refEnsemble(x, y)
		three, errThree := threeCall(x, y)
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(x0[i]) {
				t.Fatalf("Ensemble modified its input at %d", i)
			}
		}
		if !errors.Is(errGot, errWant) || !errors.Is(errThree, errWant) {
			t.Fatalf("x=%v y=%v: errors %v / %v / reference %v", x, y, errGot, errThree, errWant)
		}
		if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(three) != math.Float64bits(want) {
			t.Fatalf("x=%v y=%v: Ensemble %v, three-call %v, reference %v", x, y, got, three, want)
		}
	}
}
