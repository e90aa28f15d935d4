package flat

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// encodedEnsemble is the gob wire form of a compiled forest. Cuts holds
// each feature's full ascending cut list; the decoder lays out the code
// columns from it exactly as compilation does. Tree nodes name code
// columns (not block offsets), so the kernel's block geometry can
// change without breaking payloads. Gob writes the wire types' names
// into every payload, so renaming them changes the persisted bytes.
type encodedEnsemble struct {
	Cuts      [][]float64
	NFeatures int
	Trees     []encodedFlatTree
}

type encodedFlatTree struct {
	Feature []int32 // code column; -1 for leaves
	Bin     []uint8
	MissL   []uint8
	Left    []int32
	Value   []float64
}

type encodedFlatForest struct {
	E encodedEnsemble
}

func (f *Forest) encode() encodedEnsemble {
	out := encodedEnsemble{Cuts: f.q.cuts, NFeatures: f.nFeatures}
	for i := range f.trees {
		t := &f.trees[i]
		et := encodedFlatTree{
			Feature: make([]int32, len(t.featOff)),
			Bin:     t.bin,
			MissL:   t.missL,
			Left:    t.left,
			Value:   t.value,
		}
		for j, fo := range t.featOff {
			if fo < 0 {
				et.Feature[j] = -1
			} else {
				et.Feature[j] = fo >> blockShift
			}
		}
		out.Trees = append(out.Trees, et)
	}
	return out
}

func decode(enc encodedEnsemble) (*Forest, error) {
	if enc.NFeatures <= 0 || enc.NFeatures > maxFeatures || len(enc.Cuts) != enc.NFeatures {
		return nil, fmt.Errorf("%w: %d features, %d cut sets", ErrBadEncoding, enc.NFeatures, len(enc.Cuts))
	}
	if len(enc.Trees) == 0 {
		return nil, fmt.Errorf("%w: no trees", ErrBadEncoding)
	}
	for f, cs := range enc.Cuts {
		if len(cs) == 0 {
			continue
		}
		if cs[0] != cs[0] {
			return nil, fmt.Errorf("%w: feature %d has NaN cut", ErrBadEncoding, f)
		}
		for i := 1; i < len(cs); i++ {
			// Also rejects NaN anywhere past index 0.
			if !(cs[i-1] < cs[i]) {
				return nil, fmt.Errorf("%w: feature %d cuts not ascending", ErrBadEncoding, f)
			}
		}
	}
	q := newQuantizer(enc.Cuts)
	if len(q.cols) > maxCodeCols {
		return nil, fmt.Errorf("%w: %d code columns", ErrBadEncoding, len(q.cols))
	}
	out := &Forest{q: q, nFeatures: enc.NFeatures}
	for ti, et := range enc.Trees {
		n := len(et.Feature)
		if n == 0 || len(et.Bin) != n || len(et.MissL) != n || len(et.Left) != n || len(et.Value) != n {
			return nil, fmt.Errorf("%w: tree %d misaligned", ErrBadEncoding, ti)
		}
		ft := flatTree{
			featOff: make([]int32, n),
			bin:     et.Bin,
			missL:   et.MissL,
			left:    et.Left,
			value:   et.Value,
		}
		for i := 0; i < n; i++ {
			f := et.Feature[i]
			if f < 0 {
				ft.featOff[i] = -1
				continue
			}
			if int(f) >= len(q.cols) || int(et.Bin[i]) >= len(q.cols[f].cuts) {
				return nil, fmt.Errorf("%w: tree %d node %d splits code column %d bin %d", ErrBadEncoding, ti, i, f, et.Bin[i])
			}
			l := et.Left[i]
			// Children always follow their parent (BFS compile order)
			// and siblings are adjacent, so traversal terminates.
			if l <= int32(i) || l+1 >= int32(n) {
				return nil, fmt.Errorf("%w: tree %d node %d child %d", ErrBadEncoding, ti, i, l)
			}
			ft.featOff[i] = f << blockShift
		}
		out.trees = append(out.trees, ft)
	}
	return out, nil
}

// MarshalBinary serializes the compiled forest. Workers is runtime
// configuration and is not persisted.
func (f *Forest) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(encodedFlatForest{E: f.encode()}); err != nil {
		return nil, fmt.Errorf("flat: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalForest reconstructs a compiled forest; predictions are
// bit-identical to the forest that was marshalled.
func UnmarshalForest(data []byte) (*Forest, error) {
	var enc encodedFlatForest
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&enc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	return decode(enc.E)
}
