package gbdt

import "repro/internal/hist"

// fitHist is the boosting loop: every feature is quantized once
// (internal/hist, columns spread over GOMAXPROCS goroutines), and each
// boosting round grows its tree depth-first over contiguous row
// segments, accumulating per-node (gradient, hessian, count) histograms
// over the concatenated feature bins. A node scans rows once to build
// its histogram; after a split only the smaller child is ever scanned —
// the larger child's histogram is derived in place by parent −
// smaller-child subtraction. Leaf margins are applied directly to the
// leaf's row segment, so no per-round tree walk over the full dataset
// remains.
//
// The result is fully deterministic: binning does not depend on the
// goroutine count, and the boosting rounds run on the calling goroutine
// with no maps. It shares leafWeight/splitGain with the tests'
// exact-split reference, so the two differ only in the candidate
// thresholds considered (global bin boundaries instead of node-local
// midpoints).
func (m *Model) fitHist(cols [][]float64, y []int) {
	cfg := m.cfg
	n := len(y)
	bm := hist.Bin(cols, cfg.MaxBins, 0)

	// Per-feature base offsets into the concatenated histogram layout;
	// feature f occupies [off[f], off[f]+FiniteBins(f)] with the missing
	// bin last.
	off := make([]int, bm.NumFeatures())
	total := 0
	for f := range off {
		off[f] = total
		total += bm.FiniteBins(f) + 1
	}

	margin := make([]float64, n)
	for i := range margin {
		margin[i] = m.base
	}
	g := &histGrower{
		bm:     bm,
		off:    off,
		total:  total,
		cfg:    cfg,
		m:      m,
		gh:     make([]float64, 2*n),
		ghs:    make([]float64, 2*n),
		rows:   make([]int32, n),
		ident:  make([]int32, n),
		buf:    make([]int32, n),
		margin: margin,
	}
	for i := range g.ident {
		g.ident[i] = int32(i)
	}

	for round := 0; round < cfg.NumRounds; round++ {
		var sumG, sumH float64
		for i := 0; i < n; i++ {
			p := sigmoid(margin[i])
			gr := p - float64(y[i])
			hs := p * (1 - p)
			g.gh[2*i] = gr
			g.gh[2*i+1] = hs
			sumG += gr
			sumH += hs
		}
		copy(g.rows, g.ident)
		g.t = &regTree{}
		root := g.acquire()
		g.accumulate(0, n, root)
		g.grow(0, n, root, sumG, sumH, 0)
		m.trees = append(m.trees, g.t)
	}
}

// histCell is one bin of a node histogram: gradient sum, hessian sum,
// row count. Keeping the three together puts a bin's whole state on one
// cache line, so accumulation touches one line per row instead of
// three.
type histCell struct {
	g, h float64
	c    int32
	_    int32 // explicit padding; keeps the cell size obvious (24 B)
}

// histBuf is one node's histogram over the concatenated feature bins.
type histBuf struct {
	cells []histCell
}

// histGrower carries the shared state of the binned boosting fit.
type histGrower struct {
	bm     *hist.Matrix
	off    []int
	total  int
	cfg    Config
	m      *Model
	t      *regTree
	gh     []float64 // per-row interleaved (gradient, hessian)
	ghs    []float64 // gh gathered per node, aligned with the row segment
	rows   []int32   // working row list, segment-aligned down the tree
	ident  []int32   // identity permutation, copied at each round start
	buf    []int32   // scratch for partitioning
	margin []float64
	pool   []*histBuf // free histogram buffers; live count is O(depth)
}

func (g *histGrower) acquire() *histBuf {
	if k := len(g.pool); k > 0 {
		hb := g.pool[k-1]
		g.pool = g.pool[:k-1]
		clear(hb.cells)
		return hb
	}
	return &histBuf{cells: make([]histCell, g.total)}
}

func (g *histGrower) release(hb *histBuf) { g.pool = append(g.pool, hb) }

// accumulate adds the row segment [lo, hi) into hb. The segment's
// (gradient, hessian) pairs are gathered once up front. Features are
// then accumulated four per pass over the segment: each cell still
// sums its rows in row order, so every sum is the one a per-feature
// pass would give, while the four features' add chains are independent
// and overlap in the pipeline.
func (g *histGrower) accumulate(lo, hi int, hb *histBuf) {
	seg := g.rows[lo:hi]
	ghs := g.ghs[: 2*len(seg) : 2*len(seg)]
	for k, i := range seg {
		ghs[2*k] = g.gh[2*i]
		ghs[2*k+1] = g.gh[2*i+1]
	}
	cells := hb.cells
	nf := len(g.off)
	f := 0
	for ; f+4 <= nf; f += 4 {
		c0 := cells[g.off[f]:]
		c1 := cells[g.off[f+1]:]
		c2 := cells[g.off[f+2]:]
		c3 := cells[g.off[f+3]:]
		b0, b1, b2, b3 := g.bm.Bins(f), g.bm.Bins(f+1), g.bm.Bins(f+2), g.bm.Bins(f+3)
		for k, i := range seg {
			gr, hs := ghs[2*k], ghs[2*k+1]
			x := &c0[b0[i]]
			x.g += gr
			x.h += hs
			x.c++
			x = &c1[b1[i]]
			x.g += gr
			x.h += hs
			x.c++
			x = &c2[b2[i]]
			x.g += gr
			x.h += hs
			x.c++
			x = &c3[b3[i]]
			x.g += gr
			x.h += hs
			x.c++
		}
	}
	for ; f < nf; f++ {
		c := cells[g.off[f]:]
		bins := g.bm.Bins(f)
		for k, i := range seg {
			x := &c[bins[i]]
			x.g += ghs[2*k]
			x.h += ghs[2*k+1]
			x.c++
		}
	}
}

// histSplit is the best cut found for one node.
type histSplit struct {
	feature     int
	bin         int
	gain        float64
	gl, hl      float64
	defaultLeft bool
}

// grow grows the subtree over rows[lo:hi), consuming hb (it is either
// released or mutated into the larger child's histogram) and returns
// the node index. hb is nil at MaxDepth, where the node is a leaf.
func (g *histGrower) grow(lo, hi int, hb *histBuf, sumG, sumH float64, depth int) int {
	nodeIdx := len(g.t.nodes)
	g.t.nodes = append(g.t.nodes, regNode{feature: -1, weight: leafWeight(sumG, sumH, g.cfg.Lambda)})

	sp := histSplit{feature: -1}
	if depth < g.cfg.MaxDepth && hi-lo >= 2 {
		sp = g.bestSplit(lo, hi, hb, sumG, sumH)
	}
	if sp.feature < 0 {
		w := g.cfg.Eta * g.t.nodes[nodeIdx].weight
		for _, i := range g.rows[lo:hi] {
			g.margin[i] += w
		}
		if hb != nil {
			g.release(hb)
		}
		return nodeIdx
	}

	// Stable partition by bin index: left gets bins <= sp.bin plus the
	// missing bin when the default direction is left.
	bins := g.bm.Bins(sp.feature)
	missBin := uint8(g.bm.MissingBin(sp.feature))
	sb := uint8(sp.bin)
	w, r := lo, 0
	for k := lo; k < hi; k++ {
		i := g.rows[k]
		bb := bins[i]
		if bb <= sb || (bb == missBin && sp.defaultLeft) {
			g.rows[w] = i
			w++
		} else {
			g.buf[r] = i
			r++
		}
	}
	copy(g.rows[w:hi], g.buf[:r])
	nl := w - lo
	nr := hi - w

	g.m.gain[sp.feature] += sp.gain

	// Children at MaxDepth are always leaves and never read a
	// histogram, so none is built for them.
	var leftBuf, rightBuf *histBuf
	if depth+1 < g.cfg.MaxDepth {
		leftBuf, rightBuf = g.childHists(lo, nl, nr, hb)
	} else {
		g.release(hb)
	}

	l := g.grow(lo, lo+nl, leftBuf, sp.gl, sp.hl, depth+1)
	rIdx := g.grow(lo+nl, hi, rightBuf, sumG-sp.gl, sumH-sp.hl, depth+1)
	nd := &g.t.nodes[nodeIdx]
	nd.feature = sp.feature
	nd.threshold = g.bm.Threshold(sp.feature, sp.bin)
	nd.left = l
	nd.right = rIdx
	nd.defaultLeft = sp.defaultLeft
	return nodeIdx
}

// childHists returns the histograms of the children of a node split
// into nl left and nr right rows starting at lo. Only the smaller child
// is scanned; the larger child's histogram is the parent's minus the
// smaller's, computed in place so hb's ownership transfers to the
// larger child.
func (g *histGrower) childHists(lo, nl, nr int, hb *histBuf) (left, right *histBuf) {
	small := g.acquire()
	if nl <= nr {
		g.accumulate(lo, lo+nl, small)
	} else {
		g.accumulate(lo+nl, lo+nl+nr, small)
	}
	for b, sc := range small.cells {
		hb.cells[b].g -= sc.g
		hb.cells[b].h -= sc.h
		hb.cells[b].c -= sc.c
	}
	if nl > nr {
		return hb, small
	}
	return small, hb
}

// bestSplit scans the node's histogram for the bin boundary maximizing
// the Newton structure-score gain, trying each candidate with the
// node's missing mass routed right and (when present) left, plus the
// finite/missing boundary itself — the same candidate policy as the
// exact-split reference restricted to global bin boundaries.
func (g *histGrower) bestSplit(lo, hi int, hb *histBuf, sumG, sumH float64) histSplit {
	cfg := g.cfg
	best := histSplit{feature: -1}
	size := int32(hi - lo)

	tryCut := func(f, bin int, gl, hl float64, missLeft bool) {
		gr, hr := sumG-gl, sumH-hl
		if hl < cfg.MinChildWeight || hr < cfg.MinChildWeight {
			return
		}
		gain := splitGain(gl, hl, gr, hr, cfg.Lambda) - cfg.Gamma
		if gain <= 0 {
			return
		}
		if best.feature < 0 || gain > best.gain {
			best = histSplit{feature: f, bin: bin, gain: gain, gl: gl, hl: hl, defaultLeft: missLeft}
		}
	}

	cells := hb.cells
	for f := range g.off {
		nb := g.bm.FiniteBins(f)
		if nb == 0 {
			continue // every value missing: nothing to split on
		}
		base := g.off[f]
		miss := cells[base+nb]
		finC := size - miss.c
		if finC == 0 {
			continue
		}
		var gl, hl float64
		var cl int32
		for bb := 0; bb < nb; bb++ {
			cell := cells[base+bb]
			if cell.c == 0 {
				continue // empty bin: same row split as the previous boundary
			}
			gl += cell.g
			hl += cell.h
			cl += cell.c
			if cl == finC {
				// Boundary after the last nonempty finite bin: only
				// meaningful as the finite/missing cut.
				if miss.c > 0 {
					tryCut(f, bb, gl, hl, false)
				}
				break
			}
			tryCut(f, bb, gl, hl, false)
			if miss.c > 0 {
				tryCut(f, bb, gl+miss.g, hl+miss.h, true)
			}
		}
	}
	return best
}
