package forest

import (
	"errors"
	"testing"

	"repro/internal/tree"
)

func TestTreeImportValidation(t *testing.T) {
	cols, y := blobs(150, 1, 53)
	f, err := Fit(cols, y, Config{NumTrees: 1, MaxDepth: 4, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	good := f.trees[0].Export()

	cases := map[string]func(e tree.Encoded) tree.Encoded{
		"no nodes": func(e tree.Encoded) tree.Encoded {
			e.Feature = nil
			e.Threshold, e.Left, e.Right, e.Prob = nil, nil, nil, nil
			return e
		},
		"misaligned": func(e tree.Encoded) tree.Encoded {
			e.Prob = e.Prob[:len(e.Prob)-1]
			return e
		},
		"bad nfeatures": func(e tree.Encoded) tree.Encoded {
			e.NFeatures = 0
			return e
		},
		"feature out of range": func(e tree.Encoded) tree.Encoded {
			e = cloneEncoded(e)
			e.Feature[0] = 99
			return e
		},
		"self child": func(e tree.Encoded) tree.Encoded {
			e = cloneEncoded(e)
			if e.Feature[0] >= 0 {
				e.Left[0] = 0
			} else {
				e.Feature[0] = 0
				e.Left[0] = 0
				e.Right[0] = 0
			}
			return e
		},
		"bad prob": func(e tree.Encoded) tree.Encoded {
			e = cloneEncoded(e)
			e.Prob[len(e.Prob)-1] = 1.5
			return e
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := tree.Import(mutate(good)); !errors.Is(err, tree.ErrBadEncoding) {
				t.Errorf("error = %v, want ErrBadEncoding", err)
			}
		})
	}
	// The unmutated encoding imports cleanly.
	if _, err := tree.Import(good); err != nil {
		t.Fatalf("good encoding rejected: %v", err)
	}
}

func cloneEncoded(e tree.Encoded) tree.Encoded {
	return tree.Encoded{
		Feature:   append([]int(nil), e.Feature...),
		Threshold: append([]float64(nil), e.Threshold...),
		Left:      append([]int(nil), e.Left...),
		Right:     append([]int(nil), e.Right...),
		Prob:      append([]float64(nil), e.Prob...),
		NFeatures: e.NFeatures,
	}
}
