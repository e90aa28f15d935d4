package tree

import (
	"fmt"
	"math/rand"

	"repro/internal/hist"
)

// HistScratch holds the reusable working memory of one binned tree fit:
// the single shared row list (binned growth needs no per-feature
// orders), the partition buffer, the packed per-row weights, and the
// fixed-size bin accumulators. A HistScratch must not be used by two
// fits concurrently.
type HistScratch struct {
	rows []int32
	buf  []int32
	// pk[i] packs row i's bootstrap weight and positive weight as
	// weight<<32 | weight*y, so one histogram add accumulates both.
	// Sums stay below 2^32 because total weight is bounded by the row
	// count, so the fields can never carry into each other.
	pk   []uint64
	pseg []uint64 // pk gathered per node, aligned with the row segment
	feat []int
	// Per-bin packed totals of the node being scanned. 256 cells cover
	// the largest possible bin index (255 = missing bin of a
	// 255-finite-bin feature).
	cnt [256]uint64
}

// NewHistScratch returns an empty HistScratch; buffers are sized on
// first use.
func NewHistScratch() *HistScratch { return &HistScratch{} }

func (s *HistScratch) ensure(features, rows int) {
	if cap(s.rows) < rows {
		s.rows = make([]int32, rows)
	}
	s.rows = s.rows[:0]
	if cap(s.buf) < rows {
		s.buf = make([]int32, rows)
	}
	s.buf = s.buf[:rows]
	if cap(s.pk) < rows {
		s.pk = make([]uint64, rows)
	}
	s.pk = s.pk[:rows]
	if cap(s.pseg) < rows {
		s.pseg = make([]uint64, rows)
	}
	s.pseg = s.pseg[:rows]
	if cap(s.feat) < features {
		s.feat = make([]int, features)
	}
	s.feat = s.feat[:features]
}

// FitClassifierBinned grows a classification tree over a histogram-
// binned matrix (see internal/hist), with bootstrap replication
// expressed as integer per-row sample weights (weight 0 excludes a row;
// weight k counts it k times). Split search at a node accumulates one
// (weight, positive-weight) histogram per candidate feature and scans
// bins instead of sorted rows; the node's rows are then partitioned by
// bin index. Because every feature shares one row list, the per-node
// partition cost is a single pass regardless of feature count.
//
// Candidate cuts lie on the matrix's global bin boundaries, so deep in
// the tree the split thresholds can differ from the node-local
// midpoints of the exact reference grower (exact_test.go), but on
// columns with fewer distinct values than bins the candidate set — and
// therefore the grown tree's routing of the in-bag (weight > 0) rows —
// is identical.
//
// sc may be nil; passing a reused HistScratch eliminates per-fit
// allocation of the row list.
func FitClassifierBinned(bm *hist.Matrix, y []int, weights []int, cfg Config, sc *HistScratch) (*Classifier, error) {
	if bm == nil || bm.NumFeatures() == 0 {
		return nil, fmt.Errorf("%w: no feature columns", ErrNoData)
	}
	n := len(y)
	if bm.NumRows() != n {
		return nil, fmt.Errorf("%w: binned matrix has %d rows, labels have %d", ErrShapeMismatch, bm.NumRows(), n)
	}
	if len(weights) != n {
		return nil, fmt.Errorf("%w: %d weights, %d labels", ErrShapeMismatch, len(weights), n)
	}
	if sc == nil {
		sc = NewHistScratch()
	}
	sc.ensure(bm.NumFeatures(), n)

	wTotal, wPos := 0, 0
	for i, wi := range weights {
		if wi > 0 {
			wTotal += wi
			wPos += wi * y[i]
			sc.rows = append(sc.rows, int32(i))
		}
		sc.pk[i] = uint64(wi)<<32 | uint64(wi*y[i])
	}
	if wTotal == 0 {
		return nil, ErrNoData
	}

	t := &Classifier{
		nFeatures:  bm.NumFeatures(),
		importance: make([]float64, bm.NumFeatures()),
	}
	b := &binnedBuilder{
		bm:   bm,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		t:    t,
		feat: sc.feat,
		rows: sc.rows,
		buf:  sc.buf,
		pk:   sc.pk,
		sc:   sc,
	}
	for i := range b.feat {
		b.feat[i] = i
	}
	b.grow(0, len(b.rows), wTotal, wPos, 0)
	return t, nil
}

// binnedBuilder carries the shared state of one binned tree induction.
type binnedBuilder struct {
	bm   *hist.Matrix
	cfg  Config
	rng  *rand.Rand
	t    *Classifier
	feat []int    // feature index pool for subsampling
	rows []int32  // shared working row list, segment-aligned
	buf  []int32  // scratch for partitioning
	pk   []uint64 // per-row packed weight<<32 | weight*y
	sc   *HistScratch
}

// grow recursively grows the subtree over the row segment [lo, hi) and
// returns its node index. Mirrors the exact builder's grow with one row
// list in place of per-feature orders.
func (b *binnedBuilder) grow(lo, hi, wTotal, wPos, depth int) int {
	nodeIdx := len(b.t.nodes)
	b.t.nodes = append(b.t.nodes, node{
		feature: -1,
		prob:    float64(wPos) / float64(wTotal),
		samples: wTotal,
	})
	if depth > b.t.depth {
		b.t.depth = depth
	}

	if leafStop(b.cfg, wTotal, wPos, depth) {
		return nodeIdx
	}

	feature, splitBin, threshold, gain, wLeft, wPosLeft, defaultLeft := b.bestSplit(lo, hi, wTotal, wPos)
	if feature < 0 {
		return nodeIdx
	}

	wRight, wPosRight := wTotal-wLeft, wPos-wPosLeft
	nlRows := 0
	// When both children are guaranteed leaves no descendant reads the
	// row list, so the partition is skipped.
	if !(leafStop(b.cfg, wLeft, wPosLeft, depth+1) && leafStop(b.cfg, wRight, wPosRight, depth+1)) {
		bins := b.bm.Bins(feature)
		missBin := uint8(b.bm.MissingBin(feature))
		sb := uint8(splitBin)
		w, r := lo, 0
		for k := lo; k < hi; k++ {
			i := b.rows[k]
			bb := bins[i]
			if bb <= sb || (bb == missBin && defaultLeft) {
				b.rows[w] = i
				w++
			} else {
				b.buf[r] = i
				r++
			}
		}
		copy(b.rows[w:hi], b.buf[:r])
		nlRows = w - lo
	}

	b.t.importance[feature] += gain * float64(wTotal)

	l := b.grow(lo, lo+nlRows, wLeft, wPosLeft, depth+1)
	r := b.grow(lo+nlRows, hi, wRight, wPosRight, depth+1)
	b.t.nodes[nodeIdx].feature = feature
	b.t.nodes[nodeIdx].threshold = threshold
	b.t.nodes[nodeIdx].left = l
	b.t.nodes[nodeIdx].right = r
	b.t.nodes[nodeIdx].defaultLeft = defaultLeft
	return nodeIdx
}

// bestSplit searches the (possibly subsampled) features for the
// bin-boundary cut maximizing Gini-impurity decrease. For each
// candidate it accumulates the node's per-bin weighted totals in one
// pass over the segment, then scans the bins cumulatively — evaluating
// every nonempty boundary with missing routed right and (when the node
// has missing rows) left, plus the finite/missing boundary itself,
// exactly the candidate set of the exact sorted scan restricted to global
// bin boundaries.
func (b *binnedBuilder) bestSplit(lo, hi, wTotal, wPos int) (feature, splitBin int, threshold, gain float64, wLeft, wPosLeft int, defaultLeft bool) {
	parentImpurity := gini(wPos, wTotal)
	if parentImpurity == 0 {
		return -1, 0, 0, 0, 0, 0, false
	}

	nCand := b.cfg.MaxFeatures
	if nCand <= 0 || nCand > len(b.feat) {
		nCand = len(b.feat)
	}
	for i := 0; i < nCand; i++ {
		j := i + b.rng.Intn(len(b.feat)-i)
		b.feat[i], b.feat[j] = b.feat[j], b.feat[i]
	}

	feature = -1
	bestGain := 1e-12
	minLeaf := b.cfg.minLeaf()

	consider := func(f, bin int, nl, posL int, missLeft bool) {
		nr := wTotal - nl
		if nl < minLeaf || nr < minLeaf {
			return
		}
		g := parentImpurity -
			(float64(nl)*gini(posL, nl)+float64(nr)*gini(wPos-posL, nr))/float64(wTotal)
		if g > bestGain {
			bestGain = g
			feature = f
			splitBin = bin
			wLeft = nl
			wPosLeft = posL
			defaultLeft = missLeft
		}
	}

	// Gather the segment's packed weights once: every candidate feature
	// then reads them sequentially, leaving the bin lookup as the only
	// gather in the accumulation loop.
	seg := b.rows[lo:hi]
	pseg := b.sc.pseg[:len(seg)]
	for k, i := range seg {
		pseg[k] = b.pk[i]
	}

	cnt := &b.sc.cnt
	for c := 0; c < nCand; c++ {
		f := b.feat[c]
		nb := b.bm.FiniteBins(f)
		if nb == 0 {
			continue // every value missing: nothing to split on
		}
		bins := b.bm.Bins(f)
		for i := 0; i <= nb; i++ {
			cnt[i] = 0
		}
		for k, i := range seg {
			cnt[bins[i]] += pseg[k]
		}
		missW, missPos := int(cnt[nb]>>32), int(uint32(cnt[nb]))
		finW := wTotal - missW
		if finW == 0 {
			continue
		}

		leftW, leftPos := 0, 0
		for bb := 0; bb < nb; bb++ {
			cv := cnt[bb]
			if cv == 0 {
				continue // empty bin: same row split as the previous boundary
			}
			leftW += int(cv >> 32)
			leftPos += int(uint32(cv))
			if leftW == finW {
				// Boundary after the last nonempty finite bin: only
				// meaningful as the finite/missing cut.
				if missW > 0 {
					consider(f, bb, leftW, leftPos, false)
				}
				break
			}
			consider(f, bb, leftW, leftPos, false)
			if missW > 0 {
				consider(f, bb, leftW+missW, leftPos+missPos, true)
			}
		}
	}
	if feature < 0 {
		return -1, 0, 0, 0, 0, 0, false
	}
	return feature, splitBin, b.bm.Threshold(feature, splitBin), bestGain, wLeft, wPosLeft, defaultLeft
}
