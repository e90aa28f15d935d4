package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refRanks ranks by a stable sort of positions with NaN ordered last.
// TestRanksMatchReference holds Ranks, which sorts unstably, to it bit
// for bit.
func refRanks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		xa, xb := xs[idx[a]], xs[idx[b]]
		if xa != xa {
			return false
		}
		if xb != xb {
			return true
		}
		return xa < xb
	})
	same := func(a, b float64) bool { return a == b || (a != a && b != b) }
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && same(xs[idx[j+1]], xs[idx[i]]) {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// TestRanksMatchReference compares Ranks with refRanks by bits on
// random inputs drawn from a small value pool, so that ties, NaN,
// ±Inf and both signed zeros are common.
func TestRanksMatchReference(t *testing.T) {
	pool := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, 2.5, 1e300, -1e-300}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(70)
		xs := make([]float64, n)
		distinct := 1 + rng.Intn(len(pool))
		for i := range xs {
			if rng.Intn(4) == 0 {
				xs[i] = rng.NormFloat64()
			} else {
				xs[i] = pool[rng.Intn(distinct)]
			}
		}
		got, want := Ranks(xs), refRanks(xs)
		if len(got) != len(want) {
			t.Fatalf("%v: len %d != %d", xs, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v: rank[%d] = %v, reference %v", xs, i, got[i], want[i])
			}
		}
	}
}
