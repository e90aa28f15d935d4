package gbdt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hist"
)

// refFit is the plain form of Fit's kernel: every child gets a
// histogram, and accumulate walks the row segment once per feature.
// FuzzFitMatchesReference holds Fit, which skips last-level histograms
// and accumulates four features per pass, to it bit for bit.
func refFit(cols [][]float64, y []int, cfg Config) (*Model, error) {
	m, err := newModel(cols, y, cfg)
	if err != nil {
		return nil, err
	}
	m.refFitHist(cols, y)
	return m, nil
}

func (m *Model) refFitHist(cols [][]float64, y []int) {
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
	g := &refGrower{
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

// refGrower carries the shared state of the binned boosting fit.
type refGrower struct {
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

func (g *refGrower) acquire() *histBuf {
	if k := len(g.pool); k > 0 {
		hb := g.pool[k-1]
		g.pool = g.pool[:k-1]
		clear(hb.cells)
		return hb
	}
	return &histBuf{cells: make([]histCell, g.total)}
}

func (g *refGrower) release(hb *histBuf) { g.pool = append(g.pool, hb) }

// accumulate adds the row segment [lo, hi) into hb. The segment's
// (gradient, hessian) pairs are gathered once up front; every feature
// then reads them sequentially, leaving the bin lookup as the only
// gather in the inner loop.
func (g *refGrower) accumulate(lo, hi int, hb *histBuf) {
	seg := g.rows[lo:hi]
	ghs := g.ghs[: 2*len(seg) : 2*len(seg)]
	for k, i := range seg {
		ghs[2*k] = g.gh[2*i]
		ghs[2*k+1] = g.gh[2*i+1]
	}
	cells := hb.cells
	for f := range g.off {
		base := g.off[f]
		bins := g.bm.Bins(f)
		for k, i := range seg {
			cell := &cells[base+int(bins[i])]
			cell.g += ghs[2*k]
			cell.h += ghs[2*k+1]
			cell.c++
		}
	}
}

// refSplit is the best cut found for one node.
type refSplit struct {
	feature     int
	bin         int
	gain        float64
	gl, hl      float64
	defaultLeft bool
}

// grow grows the subtree over rows[lo:hi), consuming hb (it is either
// released or mutated into the larger child's histogram) and returns
// the node index.
func (g *refGrower) grow(lo, hi int, hb *histBuf, sumG, sumH float64, depth int) int {
	nodeIdx := len(g.t.nodes)
	g.t.nodes = append(g.t.nodes, regNode{feature: -1, weight: leafWeight(sumG, sumH, g.cfg.Lambda)})

	sp := refSplit{feature: -1}
	if depth < g.cfg.MaxDepth && hi-lo >= 2 {
		sp = g.bestSplit(lo, hi, hb, sumG, sumH)
	}
	if sp.feature < 0 {
		w := g.cfg.Eta * g.t.nodes[nodeIdx].weight
		for _, i := range g.rows[lo:hi] {
			g.margin[i] += w
		}
		g.release(hb)
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

	// Scan only the smaller child; the larger child's histogram is the
	// parent's minus the smaller's, computed in place so hb's ownership
	// transfers to the larger child.
	small := g.acquire()
	if nl <= nr {
		g.accumulate(lo, lo+nl, small)
	} else {
		g.accumulate(lo+nl, hi, small)
	}
	for b, sc := range small.cells {
		hb.cells[b].g -= sc.g
		hb.cells[b].h -= sc.h
		hb.cells[b].c -= sc.c
	}
	leftBuf, rightBuf := small, hb
	if nl > nr {
		leftBuf, rightBuf = hb, small
	}

	g.m.gain[sp.feature] += sp.gain

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

// bestSplit scans the node's histogram for the bin boundary maximizing
// the Newton structure-score gain, trying each candidate with the
// node's missing mass routed right and (when present) left, plus the
// finite/missing boundary itself — the same candidate policy as the
// exact-split reference restricted to global bin boundaries.
func (g *refGrower) bestSplit(lo, hi int, hb *histBuf, sumG, sumH float64) refSplit {
	cfg := g.cfg
	best := refSplit{feature: -1}
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
			best = refSplit{feature: f, bin: bin, gain: gain, gl: gl, hl: hl, defaultLeft: missLeft}
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

// fuzzData builds n rows of nf columns from seed: a mix of
// low-cardinality counters, continuous values and constant columns, a
// planted signal on the first few, and NaN holes at nanRate/256.
func fuzzData(seed int64, n, nf int, nanRate uint8) (cols [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	y = make([]int, n)
	for i := range y {
		if rng.Intn(4) == 0 {
			y[i] = 1
		}
	}
	cols = make([][]float64, nf)
	for f := range cols {
		c := make([]float64, n)
		kind := rng.Intn(4)
		for i := range c {
			switch kind {
			case 0:
				c[i] = float64(rng.Intn(5))
			case 1:
				c[i] = rng.NormFloat64()
			case 2:
				c[i] = 7
			default:
				c[i] = float64(rng.Intn(300))
			}
			if f < 3 && y[i] == 1 {
				c[i] += float64(rng.Intn(3))
			}
			if rng.Intn(256) < int(nanRate) {
				c[i] = math.NaN()
			}
		}
		cols[f] = c
	}
	return cols, y
}

// sameModel reports the first difference between two fitted models,
// comparing every float by its bits.
func sameModel(a, b *Model) string {
	if math.Float64bits(a.base) != math.Float64bits(b.base) {
		return fmt.Sprintf("base %v != %v", a.base, b.base)
	}
	if len(a.trees) != len(b.trees) {
		return fmt.Sprintf("%d trees != %d", len(a.trees), len(b.trees))
	}
	for t := range a.trees {
		na, nb := a.trees[t].nodes, b.trees[t].nodes
		if len(na) != len(nb) {
			return fmt.Sprintf("tree %d: %d nodes != %d", t, len(na), len(nb))
		}
		for i := range na {
			x, y := na[i], nb[i]
			if x.feature != y.feature || x.left != y.left || x.right != y.right || x.defaultLeft != y.defaultLeft ||
				math.Float64bits(x.threshold) != math.Float64bits(y.threshold) ||
				math.Float64bits(x.weight) != math.Float64bits(y.weight) {
				return fmt.Sprintf("tree %d node %d: %+v != %+v", t, i, x, y)
			}
		}
	}
	ga, errA := a.GainImportance()
	gb, errB := b.GainImportance()
	if (errA == nil) != (errB == nil) {
		return fmt.Sprintf("GainImportance errors %v vs %v", errA, errB)
	}
	for f := range ga {
		if math.Float64bits(ga[f]) != math.Float64bits(gb[f]) {
			return fmt.Sprintf("gain[%d] %v != %v", f, ga[f], gb[f])
		}
	}
	return ""
}

// FuzzFitMatchesReference holds Fit to refFit bit for bit over rows,
// features, NaN rate, bin count, depth and rounds.
func FuzzFitMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(6), uint8(10), uint8(0), uint8(4), uint8(5))
	f.Add(int64(2), uint16(1000), uint8(11), uint8(0), uint8(16), uint8(6), uint8(3))
	f.Add(int64(3), uint16(40), uint8(1), uint8(80), uint8(3), uint8(1), uint8(8))
	f.Add(int64(4), uint16(2), uint8(5), uint8(255), uint8(0), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, feats, nanRate, bins, depth, rounds uint8) {
		n := 1 + int(rows)%1500
		nf := 1 + int(feats)%13
		cfg := Config{
			NumRounds: 1 + int(rounds)%10,
			MaxDepth:  int(depth) % 8,
			Eta:       0.3,
			Lambda:    1,
			MaxBins:   int(bins),
		}
		cols, y := fuzzData(seed, n, nf, nanRate)
		got, err := Fit(cols, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refFit(cols, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameModel(got, want); d != "" {
			t.Fatalf("Fit differs from refFit (n=%d nf=%d cfg=%+v): %s", n, nf, cfg, d)
		}
	})
}
