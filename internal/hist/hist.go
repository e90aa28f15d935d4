// Package hist implements histogram binning for the tree learners: each
// feature column is quantized once per dataset into at most 256 bins
// (including a dedicated missing bin), after which split search scans
// per-node bin histograms instead of presorted rows.
//
// Cut points are quantile-based: when a column has fewer distinct finite
// values than bins, every distinct value gets its own bin (SMART
// counters are low-cardinality integers, so this is the common case and
// makes binned split search exactly as expressive as the presorted exact
// scan); otherwise cuts are placed at evenly spaced ranks of the sorted
// finite values. Missing (NaN) values always map to a dedicated bin one
// past the finite bins, so the learners' sparsity-aware default-direction
// logic carries over unchanged.
//
// Thresholds are chosen so that routing by bin index and routing raw
// values through the fitted tree agree: the threshold after bin b is a
// midpoint strictly below the smallest value of bin b+1 (with the same
// adjacent-float fallback as exact search), and the last threshold is
// the column's largest finite value (the finite/missing boundary cut).
//
// Cuts need only each column's distinct values and their counts, never
// its row order, so Bin takes one of two paths per column:
//
//   - Low cardinality: the distinct finite values are collected into a
//     small hash table, giving up once more than maxBins-1 appear. The
//     at most 255 values are sorted, one bin is cut per value, and every
//     row is binned by table lookup.
//   - High cardinality: the finite values' order-preserving uint64 keys
//     (not row indices) are radix-sorted and grouped into distinct values
//     with counts, quantile cuts are placed on the groups, and every row
//     is binned by binary search over the thresholds.
//
// Columns are independent, so Bin spreads them across workers; the
// result does not depend on the worker count. Both paths are pinned to
// the argsort binning they replaced, kept in the tests as binReference:
// FuzzBinMatchesReference requires bit-equal thresholds and equal bins.
package hist

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// SplitMethod is ignored: histogram-binned split search is the only
// tree grower. The type is kept only because perfbench, which changes
// only together with the benchmark definition, still names it through
// engine.Config.SplitMethod and selection.Resolve.
type SplitMethod int

// DefaultMaxBins is the per-feature bin budget (including the missing
// bin) used when a config leaves MaxBins at zero.
const DefaultMaxBins = 256

// Matrix is a column-major dataset quantized to bin indices. Feature f
// has FiniteBins(f) finite bins numbered 0..FiniteBins(f)-1 in
// increasing value order, plus the missing bin MissingBin(f) holding
// NaN rows. It is immutable after Bin and safe for concurrent readers.
type Matrix struct {
	bins [][]uint8
	thr  [][]float64 // thr[f][b]: rows with value <= thr[f][b] land in bins 0..b
	rows int
}

// Bin quantizes every column into at most maxBins bins (maxBins-1
// finite plus the missing bin; values outside [2, 256] mean
// DefaultMaxBins), binning columns on up to workers goroutines
// (<= 0 means GOMAXPROCS). Columns must share one length; ragged
// columns panic.
func Bin(cols [][]float64, maxBins, workers int) *Matrix {
	if maxBins < 2 || maxBins > 256 {
		maxBins = DefaultMaxBins
	}
	m := &Matrix{
		bins: make([][]uint8, len(cols)),
		thr:  make([][]float64, len(cols)),
	}
	if len(cols) == 0 {
		return m
	}
	n := len(cols[0])
	for f, col := range cols {
		if len(col) != n {
			panic(fmt.Sprintf("hist: column %d has %d rows, column 0 has %d", f, len(col), n))
		}
	}
	m.rows = n
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(cols))

	// One backing array for every column's bins; each worker claims
	// whole columns and writes only their disjoint slices.
	all := make([]uint8, len(cols)*n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := new(scratch)
			for f := int(next.Add(1) - 1); f < len(cols); f = int(next.Add(1) - 1) {
				bins := all[f*n : (f+1)*n : (f+1)*n]
				thr, ok := sc.binFew(cols[f], bins, maxBins-1)
				if !ok {
					thr = sc.binMany(cols[f], bins, maxBins-1)
				}
				m.thr[f], m.bins[f] = thr, bins
			}
		}()
	}
	wg.Wait()
	return m
}

// NumFeatures returns the feature count.
func (m *Matrix) NumFeatures() int { return len(m.bins) }

// NumRows returns the row count.
func (m *Matrix) NumRows() int { return m.rows }

// FiniteBins returns feature f's finite bin count. Zero means the
// column had no finite values and can never be split on.
func (m *Matrix) FiniteBins(f int) int { return len(m.thr[f]) }

// MissingBin returns the bin index holding feature f's missing rows.
func (m *Matrix) MissingBin(f int) int { return len(m.thr[f]) }

// Bins returns feature f's per-row bin indices. Read-only.
func (m *Matrix) Bins(f int) []uint8 { return m.bins[f] }

// Threshold returns the split value after finite bin b of feature f:
// rows with value <= Threshold(f, b) occupy bins 0..b.
func (m *Matrix) Threshold(f, b int) float64 { return m.thr[f][b] }

// BinOf quantizes one value of feature f, for tests and diagnostics.
func (m *Matrix) BinOf(f int, v float64) int { return binOf(m.thr[f], v) }

// Low-cardinality table: open addressing over tableSize slots keyed by
// a value's float64 bits, so at most 255 entries keep it under half
// full. No NaN is ever inserted, which frees the all-ones NaN pattern
// to mark empty slots.
const (
	tableBits = 9
	tableSize = 1 << tableBits
	emptyKey  = math.MaxUint64
	negZero   = 1 << 63 // bits of -0
	missingID = 255     // row marker for NaN; distinct-value ids stay below
)

// scratch is one worker's reusable per-column working memory.
type scratch struct {
	// Low-cardinality path.
	slot [tableSize]uint64  // value bits per slot, emptyKey when free
	id   [tableSize]uint8   // distinct-value id of the value in each slot
	few  [missingID]float64 // distinct values by id
	// High-cardinality path.
	keys []uint64  // sorted finite keys
	tmp  []uint64  // radix sort buffer
	vals []float64 // distinct values in sorted order
	cnts []int     // row count per distinct value
}

// binFew bins a column with at most maxFinite distinct finite values:
// one bin per distinct value, rows binned by table lookup. It reports
// false, leaving bins partly written, once a column shows more.
func (sc *scratch) binFew(col []float64, bins []uint8, maxFinite int) ([]float64, bool) {
	for i := range sc.slot {
		sc.slot[i] = emptyKey
	}
	vals := sc.few[:0]
	sawNegZero, zeroID := false, -1
	for i, v := range col {
		if v != v {
			bins[i] = missingID
			continue
		}
		// -0 and +0 compare equal and share a bin, so they share a key.
		k := math.Float64bits(v)
		if k == negZero {
			sawNegZero, k = true, 0
		}
		h := (k * 0x9E3779B97F4A7C15) >> (64 - tableBits)
		for sc.slot[h] != k && sc.slot[h] != emptyKey {
			h = (h + 1) & (tableSize - 1)
		}
		if sc.slot[h] == emptyKey {
			if len(vals) == maxFinite {
				return nil, false
			}
			if k == 0 {
				zeroID = len(vals)
			}
			sc.slot[h], sc.id[h] = k, uint8(len(vals))
			vals = append(vals, math.Float64frombits(k))
		}
		bins[i] = sc.id[h]
	}
	// Sorted order keeps the first of the values that compare equal,
	// and -0 sorts before +0: the merged zero group is -0 whenever any
	// row is.
	if sawNegZero {
		vals[zeroID] = math.Copysign(0, -1)
	}

	// Sort the ids by value, cut between neighbours, and remap each id
	// to its rank.
	d := len(vals)
	var thr []float64
	var order, remap [256]uint8
	if d > 0 {
		ids := order[:d]
		for g := range ids {
			ids[g] = uint8(g)
		}
		slices.SortFunc(ids, func(a, b uint8) int { return cmp.Compare(vals[a], vals[b]) })
		thr = make([]float64, d)
		for g, id := range ids {
			remap[id] = uint8(g)
			if g > 0 {
				thr[g-1] = cutBetween(vals[ids[g-1]], vals[id])
			}
		}
		thr[d-1] = vals[ids[d-1]]
	}
	remap[missingID] = uint8(d)
	for i, b := range bins {
		bins[i] = remap[b]
	}
	return thr, true
}

// binMany bins a column with more than maxFinite distinct finite
// values: quantile cuts over its sorted finite values, rows binned by
// binary search over the thresholds.
func (sc *scratch) binMany(col []float64, bins []uint8, maxFinite int) []float64 {
	if cap(sc.keys) < len(col) {
		sc.keys = make([]uint64, 0, len(col))
		sc.tmp = make([]uint64, len(col))
		sc.vals = make([]float64, 0, len(col))
		sc.cnts = make([]int, 0, len(col))
	}
	keys := sc.keys[:0]
	for _, v := range col {
		if v == v {
			keys = append(keys, floatKey(v))
		}
	}
	radixSort(keys, sc.tmp[:len(keys)])

	// Group into distinct values with counts. Equal-comparing values
	// merge into the first in sorted order, exactly as in cut placement
	// over an argsort.
	vals, cnts := sc.vals[:0], sc.cnts[:0]
	for _, k := range keys {
		v := keyFloat(k)
		if len(vals) > 0 && v == vals[len(vals)-1] {
			cnts[len(cnts)-1]++
		} else {
			vals = append(vals, v)
			cnts = append(cnts, 1)
		}
	}
	thr := quantileCuts(vals, cnts, len(keys), maxFinite)

	// The sorted keys are spent; their buffer holds the thresholds'
	// keys. Adding +0 turns -0 into +0, so key order agrees with float
	// comparison, under which -0 and +0 are equal.
	ks := sc.keys[:len(thr)]
	for b, t := range thr {
		ks[b] = floatKey(t + 0)
	}
	miss := uint8(len(thr))
	for i, v := range col {
		if v != v {
			bins[i] = miss
			continue
		}
		bins[i] = uint8(searchCuts(ks, floatKey(v+0)))
	}
	return thr
}

// quantileCuts places greedy quantile cuts over d > maxFinite sorted
// distinct values with counts summing to fin: a bin closes whenever
// the cumulative row count reaches the next evenly spaced rank. Every
// bin is nonempty and value groups are never split across bins.
func quantileCuts(vals []float64, cnts []int, fin, maxFinite int) []float64 {
	d := len(vals)
	thr := make([]float64, 0, maxFinite)
	cum := 0
	for g := 0; g < d; g++ {
		cum += cnts[g]
		if g == d-1 {
			thr = append(thr, vals[g])
			break
		}
		if float64(cum) >= float64(len(thr)+1)*float64(fin)/float64(maxFinite) {
			thr = append(thr, cutBetween(vals[g], vals[g+1]))
		}
	}
	return thr
}

// floatKey maps a float64 to a uint64 whose unsigned order matches the
// float's total order: flip all bits of negatives, flip only the sign
// bit of non-negatives (so -0 sorts just below +0).
func floatKey(v float64) uint64 {
	u := math.Float64bits(v)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}

// keyFloat inverts floatKey.
func keyFloat(k uint64) float64 {
	if k&(1<<63) != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// radixSort sorts keys ascending by LSD byte passes through tmp (of the
// same length), skipping every pass whose byte all keys share.
func radixSort(keys, tmp []uint64) {
	if len(keys) < 2 {
		return
	}
	var count [8][256]int
	for _, k := range keys {
		for p := range count {
			count[p][byte(k>>(8*p))]++
		}
	}
	src, dst := keys, tmp
	for p := range count {
		c := &count[p]
		shift := uint(8 * p)
		if c[byte(src[0]>>shift)] == len(src) {
			continue
		}
		pos := 0
		for b, n := range c {
			c[b] = pos
			pos += n
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// searchCuts returns the bin of finite value key k among threshold
// keys ks: the first bin whose threshold is >= the value, or the last
// bin for values above every threshold. Keys compare as integers and
// the subtraction's borrow advances the base, so the halving step has
// no branch, whose outcome would be a coin flip per row on continuous
// columns.
func searchCuts(ks []uint64, k uint64) int {
	base, n := 0, len(ks)
	for n > 1 {
		half := n >> 1
		_, lt := bits.Sub64(ks[base+half-1], k, 0) // 1 when ks[...] < k
		base += half & -int(lt)
		n -= half
	}
	return base
}

// cutBetween returns a threshold separating adjacent distinct values
// a < b: their midpoint, or a itself when the midpoint does not land
// strictly below b (adjacent floats, ±Inf endpoints whose midpoint
// overflows or degenerates). Mirrors the fallback of the exact
// reference (tree.FitClassifier) so both route unseen values
// identically.
func cutBetween(a, b float64) float64 {
	mid := a/2 + b/2
	if !(mid < b) || math.IsNaN(mid) {
		return a
	}
	return mid
}

// binOf returns the bin of one value: the first bin whose threshold is
// >= v, the last finite bin for values above every threshold (unseen
// data beyond the training maximum), or the missing bin for NaN.
func binOf(thr []float64, v float64) int {
	if v != v || len(thr) == 0 {
		return len(thr)
	}
	b := sort.SearchFloat64s(thr, v)
	if b == len(thr) {
		b = len(thr) - 1
	}
	return b
}
