package gbdt

import "repro/internal/presort"

// fitExact is the exact-split reference TestHistMatchesExactPredictions
// compares Fit against: every round grows its tree level by level,
// scanning each feature's presorted row order for the node-local best
// midpoint instead of global bin boundaries.
func fitExact(cols [][]float64, y []int, cfg Config) (*Model, error) {
	m, err := newModel(cols, y, cfg)
	if err != nil {
		return nil, err
	}
	cfg = m.cfg
	n := len(y)
	// Presort row indices per feature once (shared sort machinery with
	// internal/tree); every tree reuses the ordering through the nodeOf
	// partition masks.
	order := presort.All(cols)

	margin := make([]float64, n)
	for i := range margin {
		margin[i] = m.base
	}
	grad := make([]float64, n)
	hess := make([]float64, n)
	nodeOf := make([]int32, n) // which leaf each sample currently sits in

	for round := 0; round < cfg.NumRounds; round++ {
		for i := 0; i < n; i++ {
			p := sigmoid(margin[i])
			grad[i] = p - float64(y[i])
			hess[i] = p * (1 - p)
		}
		t := m.growTree(cols, order, grad, hess, nodeOf)
		m.trees = append(m.trees, t)
		// Margin update walks the columns directly; no per-row gather.
		t.predictBatchAdd(cols, cfg.Eta, margin)
	}
	return m, nil
}

// growTree grows one Newton regression tree level by level.
func (m *Model) growTree(cols [][]float64, order [][]int32, grad, hess []float64, nodeOf []int32) *regTree {
	cfg := m.cfg
	n := len(grad)
	t := &regTree{}

	var sumG, sumH float64
	for i := 0; i < n; i++ {
		sumG += grad[i]
		sumH += hess[i]
		nodeOf[i] = 0
	}
	t.nodes = append(t.nodes, regNode{feature: -1, weight: leafWeight(sumG, sumH, cfg.Lambda)})

	type nodeStat struct {
		id   int
		g, h float64
		size int
	}
	frontier := []nodeStat{{id: 0, g: sumG, h: sumH, size: n}}

	for depth := 0; depth < cfg.MaxDepth && len(frontier) > 0; depth++ {
		// Best split per frontier node, found by one pass per feature
		// over the presorted order. All per-node state lives in dense
		// slices indexed by frontier slot — the sample loop runs
		// n x features times per level, so a map lookup per sample
		// would dominate the whole fit.
		type split struct {
			feature     int
			threshold   float64
			gain        float64
			gl, hl      float64
			sizeL       int
			defaultLeft bool
		}
		// slotOf maps a node id to its frontier slot + 1 (0 = not in
		// the frontier).
		slotOf := make([]int32, len(t.nodes))
		for s, fs := range frontier {
			slotOf[fs.id] = int32(s + 1)
		}
		best := make([]split, len(frontier))
		for s := range best {
			best[s].feature = -1
		}
		// Per-node running left sums for the current feature.
		type acc struct {
			g, h  float64
			cnt   int
			lastV float64
			has   bool
		}
		accs := make([]acc, len(frontier))
		// Per-node grad/hess/count of the rows whose current feature is
		// missing (NaN). Missing rows sit in a contiguous tail of each
		// presorted order, so they are summed in one pass before the
		// finite scan and each candidate cut is tried with the missing
		// mass routed to either child (XGBoost's sparsity-aware split).
		missG := make([]float64, len(frontier))
		missH := make([]float64, len(frontier))
		missCnt := make([]int, len(frontier))
		for f := range cols {
			col := cols[f]
			ord := order[f]
			fin := len(ord)
			for fin > 0 {
				v := col[ord[fin-1]]
				if v == v {
					break
				}
				fin--
			}
			for s := range accs {
				accs[s] = acc{}
			}
			if fin == len(ord) {
				// All-finite fast path: identical to the scan that
				// predates missing-value support, bit for bit.
				for _, i := range ord {
					s := slotOf[nodeOf[i]] - 1
					if s < 0 {
						continue // sample not in a frontier node
					}
					a := &accs[s]
					fs := &frontier[s]
					v := col[i]
					// A split boundary exists before i when the value
					// changes and both sides are non-empty.
					if a.has && v != a.lastV && a.cnt > 0 && a.cnt < fs.size {
						gl, hl := a.g, a.h
						gr, hr := fs.g-gl, fs.h-hl
						if hl >= cfg.MinChildWeight && hr >= cfg.MinChildWeight {
							gain := splitGain(gl, hl, gr, hr, cfg.Lambda) - cfg.Gamma
							if gain > 0 {
								if cur := &best[s]; cur.feature < 0 || gain > cur.gain {
									// For adjacent floats the midpoint
									// rounds up to v itself, which would
									// route v-valued rows left while their
									// grad/hess were summed right; fall
									// back to lastV so the cut stays
									// strictly left of v.
									thr := (a.lastV + v) / 2
									if thr >= v {
										thr = a.lastV
									}
									*cur = split{
										feature:   f,
										threshold: thr,
										gain:      gain,
										gl:        gl, hl: hl,
										sizeL: a.cnt,
									}
								}
							}
						}
					}
					a.g += grad[i]
					a.h += hess[i]
					a.cnt++
					a.lastV = v
					a.has = true
				}
				continue
			}

			// Missing-aware path. Sum the NaN tail per frontier node…
			for s := range missG {
				missG[s], missH[s], missCnt[s] = 0, 0, 0
			}
			for _, i := range ord[fin:] {
				s := slotOf[nodeOf[i]] - 1
				if s < 0 {
					continue
				}
				missG[s] += grad[i]
				missH[s] += hess[i]
				missCnt[s]++
			}
			// tryCut records a candidate with the given left-child mass
			// and missing direction.
			tryCut := func(s int32, f int, thr, gl, hl float64, sizeL int, missLeft bool) {
				fs := &frontier[s]
				gr, hr := fs.g-gl, fs.h-hl
				if hl < cfg.MinChildWeight || hr < cfg.MinChildWeight {
					return
				}
				gain := splitGain(gl, hl, gr, hr, cfg.Lambda) - cfg.Gamma
				if gain <= 0 {
					return
				}
				if cur := &best[s]; cur.feature < 0 || gain > cur.gain {
					*cur = split{
						feature:   f,
						threshold: thr,
						gain:      gain,
						gl:        gl, hl: hl,
						sizeL:       sizeL,
						defaultLeft: missLeft,
					}
				}
			}
			// …then scan the finite prefix, trying each boundary with
			// the missing mass on the right (default) and on the left.
			for _, i := range ord[:fin] {
				s := slotOf[nodeOf[i]] - 1
				if s < 0 {
					continue
				}
				a := &accs[s]
				fs := &frontier[s]
				v := col[i]
				if a.has && v != a.lastV && a.cnt > 0 && a.cnt+missCnt[s] < fs.size {
					thr := (a.lastV + v) / 2
					if thr >= v {
						thr = a.lastV
					}
					tryCut(s, f, thr, a.g, a.h, a.cnt, false)
					if missCnt[s] > 0 {
						tryCut(s, f, thr, a.g+missG[s], a.h+missH[s], a.cnt+missCnt[s], true)
					}
				}
				a.g += grad[i]
				a.h += hess[i]
				a.cnt++
				a.lastV = v
				a.has = true
			}
			// The finite/missing boundary: every finite value left,
			// missing right, cut at the node's largest finite value.
			for s := range accs {
				a := &accs[s]
				if !a.has || missCnt[s] == 0 {
					continue
				}
				tryCut(int32(s), f, a.lastV, a.g, a.h, a.cnt, false)
			}
		}

		// Apply the chosen splits and build the next frontier.
		// childOf is indexed by parent node id; child ids are always
		// positive, so a zero entry means "no split".
		var next []nodeStat
		childOf := make([][2]int32, len(t.nodes))
		split2 := 0
		for s, fs := range frontier {
			sp := best[s]
			if sp.feature < 0 {
				continue
			}
			l := len(t.nodes)
			t.nodes = append(t.nodes,
				regNode{feature: -1, weight: leafWeight(sp.gl, sp.hl, cfg.Lambda)},
				regNode{feature: -1, weight: leafWeight(fs.g-sp.gl, fs.h-sp.hl, cfg.Lambda)},
			)
			nd := &t.nodes[fs.id]
			nd.feature = sp.feature
			nd.threshold = sp.threshold
			nd.left = l
			nd.right = l + 1
			nd.defaultLeft = sp.defaultLeft
			childOf[fs.id] = [2]int32{int32(l), int32(l + 1)}
			split2++
			m.gain[sp.feature] += sp.gain
			next = append(next,
				nodeStat{id: l, g: sp.gl, h: sp.hl, size: sp.sizeL},
				nodeStat{id: l + 1, g: fs.g - sp.gl, h: fs.h - sp.hl, size: fs.size - sp.sizeL},
			)
		}
		if split2 == 0 {
			break
		}
		// Reassign samples to children.
		for i := 0; i < n; i++ {
			id := nodeOf[i]
			ch := childOf[id]
			if ch[0] == 0 {
				continue
			}
			nd := &t.nodes[id]
			v := cols[nd.feature][i]
			if v <= nd.threshold || (v != v && nd.defaultLeft) {
				nodeOf[i] = ch[0]
			} else {
				nodeOf[i] = ch[1]
			}
		}
		frontier = next
	}
	return t
}

// predictBatchAdd adds scale times each row's leaf weight into out[i],
// reading the column-major data directly.
func (t *regTree) predictBatchAdd(cols [][]float64, scale float64, out []float64) {
	nodes := t.nodes
	for i := range out {
		k := 0
		for {
			nd := &nodes[k]
			if nd.feature < 0 {
				out[i] += scale * nd.weight
				break
			}
			v := cols[nd.feature][i]
			if v <= nd.threshold || (v != v && nd.defaultLeft) {
				k = int(nd.left)
			} else {
				k = int(nd.right)
			}
		}
	}
}
