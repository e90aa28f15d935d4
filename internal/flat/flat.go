// Package flat compiles a fitted Random Forest (forest.Forest) into
// flat, cache-friendly node arrays scored over uint8 histogram codes
// instead of float64 columns.
//
// Compilation derives a per-feature cut set from the forest itself:
// the sorted distinct split thresholds actually used by its nodes. A
// feature's cut list is split into consecutive chunks of at most 254
// cuts, each its own uint8 code column quantized from the same input
// column, so compilation never fails on cut count. Each input value is
// quantized once per batch and chunk to the count of the chunk's cuts
// below it (NaN -> 255), after which every split decision in every
// tree is a single integer compare on the column of the chunk holding
// the node's threshold:
//
//	code(v) <= splitBin  <=>  v <= threshold
//
// holds for all float64 values by construction, so flat predictions are
// bit-identical to the pointer forest, including NaN routing via each
// node's missing-direction bit and the ordering of float accumulation
// across trees.
//
// Scoring is row-blocked: a block of rows is quantized into an
// L2-resident code matrix, then each tree partitions the block's row
// indices down its nodes with a branchless two-cursor split, so every
// node's constants load once per block and each row pays only for the
// depth of the leaf it actually reaches.
package flat

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/forest"
	"repro/internal/tree"
)

// Compilation limits. maxCuts is 254 because code 255 is reserved for
// missing (NaN) and a split on a chunk's largest cut must still route
// above-chunk values (code == len(chunk)) right. maxCodeCols keeps a
// code column's block offset (column << blockShift) within int32.
const (
	maxCuts     = 254
	missingCode = 255
	maxFeatures = 1 << 15
	maxCodeCols = 1 << (31 - blockShift)
)

// Errors returned by compilation and decoding.
var (
	// ErrNotCompilable indicates a forest outside the flat layout's
	// structural limits (feature, node or code-column counts).
	ErrNotCompilable = errors.New("flat: not compilable")
	// ErrBadEncoding indicates serialized bytes that do not decode into
	// a valid compiled forest.
	ErrBadEncoding = errors.New("flat: bad encoding")
	// ErrShapeMismatch indicates prediction input whose shape does not
	// match the compiled forest.
	ErrShapeMismatch = errors.New("flat: shape mismatch")
)

// codeCol is one uint8 code column: a chunk of at most maxCuts
// consecutive cuts of one input feature.
type codeCol struct {
	src  int       // input column the codes are quantized from
	cuts []float64 // the chunk's ascending cuts; nil for an unused column
	// keys is cuts padded with +Inf. Cuts are finite (tree thresholds
	// always are), so padding slots are never counted by the strict
	// "cut < v" compare, and NaN compares false everywhere (its search
	// result is discarded for missingCode anyway). The fixed 256-slot
	// array type lets masked indexing drop every bounds check in the
	// per-value count-of-smaller loop, and start (half the padded power
	// of two, which must exceed the cut count) sets its trip count.
	keys  *[256]float64
	start int32
}

// quantizer maps raw float64 feature values to uint8 codes. Code
// column f < len(cuts) holds feature f's first chunk, so a forest
// with at most maxCuts cuts per feature has one column per feature, at
// the feature's own index; the further chunks of features with more
// cuts follow in feature order.
type quantizer struct {
	// cuts[f] is feature f's ascending distinct thresholds across all
	// of its chunks; nil when no node splits on f (such columns are
	// never read when scoring).
	cuts [][]float64
	// overflow[f] is the code column of feature f's second chunk;
	// chunk k >= 1 sits at overflow[f]+k-1.
	overflow []int
	cols     []codeCol
}

// buildQuantizer collects the distinct thresholds of every internal
// node across trees, given as parallel (feature, threshold) arrays with
// feature < 0 marking leaves.
func buildQuantizer(nFeatures int, features [][]int, thresholds [][]float64) (*quantizer, error) {
	perFeat := make([][]float64, nFeatures)
	for ti, fs := range features {
		for i, f := range fs {
			if f < 0 {
				continue
			}
			// +0.0 canonicalizes any -0.0 threshold; routing at the cut
			// is identical since -0.0 == 0.0 under float compares.
			perFeat[f] = append(perFeat[f], thresholds[ti][i]+0.0)
		}
	}
	for f, cs := range perFeat {
		if len(cs) == 0 {
			continue
		}
		sort.Float64s(cs)
		w := 1
		for i := 1; i < len(cs); i++ {
			if cs[i] != cs[w-1] {
				cs[w] = cs[i]
				w++
			}
		}
		perFeat[f] = cs[:w]
	}
	q := newQuantizer(perFeat)
	if len(q.cols) > maxCodeCols {
		return nil, fmt.Errorf("%w: %d code columns", ErrNotCompilable, len(q.cols))
	}
	return q, nil
}

// newQuantizer lays out the code columns of per-feature ascending
// distinct cut sets.
func newQuantizer(cuts [][]float64) *quantizer {
	q := &quantizer{
		cuts:     cuts,
		overflow: make([]int, len(cuts)),
		cols:     make([]codeCol, len(cuts)),
	}
	for f, cs := range cuts {
		q.cols[f].src = f
		if len(cs) == 0 {
			continue
		}
		q.cols[f].setCuts(cs[:min(len(cs), maxCuts)])
		q.overflow[f] = len(q.cols)
		for lo := maxCuts; lo < len(cs); lo += maxCuts {
			c := codeCol{src: f}
			c.setCuts(cs[lo:min(lo+maxCuts, len(cs))])
			q.cols = append(q.cols, c)
		}
	}
	return q
}

// setCuts installs the column's ascending distinct chunk
// (1 <= len <= maxCuts).
func (c *codeCol) setCuts(cs []float64) {
	// Pad strictly beyond len(cs): the count-of-smaller loop over a
	// power-of-two region can only produce values < p, and a value
	// above every cut must yield count == len(cs).
	p := 1
	for p <= len(cs) {
		p <<= 1
	}
	keys := new([256]float64)
	for i := range keys {
		keys[i] = math.Inf(1)
	}
	for i, v := range cs {
		// +0.0 collapses a -0.0 cut into +0.0; identical routing since
		// the two zeros are equal under float compares.
		keys[i] = v + 0.0
	}
	c.cuts = cs
	c.keys = keys
	c.start = int32(p >> 1)
}

// cutIndex returns the code column and in-chunk code of an exact
// threshold present in feature f's cut set (every compiled node
// threshold is, by construction).
func (q *quantizer) cutIndex(f int, thr float64) (int, uint8, error) {
	cs := q.cuts[f]
	i := sort.SearchFloat64s(cs, thr+0.0)
	if i >= len(cs) || cs[i] != thr {
		return 0, 0, fmt.Errorf("%w: threshold %v not in feature %d cut set", ErrNotCompilable, thr, f)
	}
	col := f
	if k := i / maxCuts; k > 0 {
		col = q.overflow[f] + k - 1
	}
	return col, uint8(i % maxCuts), nil
}

// flatTree is one compiled tree in SoA layout, BFS-ordered so children
// sit after parents and siblings are adjacent (right = left+1).
type flatTree struct {
	// featOff is the node's code column pre-shifted by blockShift (the
	// column's offset in a block's code matrix), or -1 for leaves.
	featOff []int32
	bin     []uint8   // split code: route left iff code <= bin
	missL   []uint8   // 1 when missing (code 255) routes left
	left    []int32   // left child; right child is left+1
	value   []float64 // leaf probability; 0 on internal nodes
}

// Forest is a compiled forest.Forest: its trees share one quantizer.
type Forest struct {
	q         *quantizer
	trees     []flatTree
	nFeatures int
	// Workers bounds scoring concurrency; <= 0 means GOMAXPROCS.
	// Results are bit-identical for any value.
	Workers int
}

// compileTree renumbers one tree's nodes into BFS order with adjacent
// siblings and translates thresholds to codes. Inputs are the parallel
// arrays of the source encoding; a nil DefaultLeft routes missing
// right, matching pre-missing-support encodings.
func compileTree(q *quantizer, e tree.Encoded) (flatTree, error) {
	n := len(e.Feature)
	if n == 0 || n > math.MaxInt32/2 {
		return flatTree{}, fmt.Errorf("%w: %d nodes", ErrNotCompilable, n)
	}
	ft := flatTree{
		featOff: make([]int32, 0, n),
		bin:     make([]uint8, 0, n),
		missL:   make([]uint8, 0, n),
		left:    make([]int32, 0, n),
		value:   make([]float64, 0, n),
	}
	// BFS from the root: emit the node, then append both children to
	// the frontier together so they land adjacent in the new order.
	order := make([]int, 0, n)
	order = append(order, 0)
	for at := 0; at < len(order); at++ {
		src := order[at]
		if src < 0 || src >= n {
			return flatTree{}, fmt.Errorf("%w: child index %d of %d nodes", ErrNotCompilable, src, n)
		}
		f := e.Feature[src]
		if f < 0 {
			ft.featOff = append(ft.featOff, -1)
			ft.bin = append(ft.bin, missingCode)
			ft.missL = append(ft.missL, 0)
			ft.left = append(ft.left, int32(at)) // self-link; never followed
			ft.value = append(ft.value, e.Prob[src])
			continue
		}
		if f >= len(q.cuts) {
			return flatTree{}, fmt.Errorf("%w: feature %d of %d", ErrNotCompilable, f, len(q.cuts))
		}
		col, sb, err := q.cutIndex(f, e.Threshold[src])
		if err != nil {
			return flatTree{}, err
		}
		var ml uint8
		if e.DefaultLeft != nil && e.DefaultLeft[src] {
			ml = 1
		}
		ft.featOff = append(ft.featOff, int32(col)<<blockShift)
		ft.bin = append(ft.bin, sb)
		ft.missL = append(ft.missL, ml)
		ft.left = append(ft.left, int32(len(order))) // next frontier slot
		ft.value = append(ft.value, 0)
		order = append(order, e.Left[src], e.Right[src])
	}
	if len(order) != n {
		return flatTree{}, fmt.Errorf("%w: %d reachable of %d nodes", ErrNotCompilable, len(order), n)
	}
	return ft, nil
}

// CompileForest compiles a fitted forest; all trees share one cut set.
func CompileForest(f *forest.Forest) (*Forest, error) {
	trees := f.Trees()
	encs := make([]tree.Encoded, len(trees))
	for i, t := range trees {
		encs[i] = t.Export()
	}
	return compile(f.NumFeatures(), encs)
}

// compile builds the compiled form of nf-feature trees given as their
// exported encodings.
func compile(nf int, encs []tree.Encoded) (*Forest, error) {
	if len(encs) == 0 {
		return nil, fmt.Errorf("%w: no trees", ErrNotCompilable)
	}
	if nf <= 0 || nf > maxFeatures {
		return nil, fmt.Errorf("%w: %d features", ErrNotCompilable, nf)
	}
	features := make([][]int, len(encs))
	thresholds := make([][]float64, len(encs))
	for i, e := range encs {
		features[i] = e.Feature
		thresholds[i] = e.Threshold
	}
	q, err := buildQuantizer(nf, features, thresholds)
	if err != nil {
		return nil, err
	}
	out := &Forest{q: q, nFeatures: nf}
	for i, e := range encs {
		if e.NFeatures != nf {
			return nil, fmt.Errorf("%w: tree %d has %d features, forest %d", ErrNotCompilable, i, e.NFeatures, nf)
		}
		ft, err := compileTree(q, e)
		if err != nil {
			return nil, err
		}
		out.trees = append(out.trees, ft)
	}
	return out, nil
}

// NumFeatures returns the feature count the source forest was fitted
// with.
func (f *Forest) NumFeatures() int { return f.nFeatures }
