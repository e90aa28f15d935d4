package engine

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/flat"
	"repro/internal/forest"
)

// forestSnapshot returns a valid format-2 snapshot: one wear group
// over one feature, holding a compiled forest of the group's input
// width, so fuzz mutations reach flat decoding.
func forestSnapshot(tb testing.TB) ModelSnapshot {
	tb.Helper()
	width := inputWidth(1, nil)
	rng := rand.New(rand.NewSource(1))
	cols := make([][]float64, width)
	for c := range cols {
		cols[c] = make([]float64, 64)
		for i := range cols[c] {
			cols[c][i] = rng.NormFloat64()
		}
	}
	y := make([]int, 64)
	for i := range y {
		if cols[0][i] > 0.5 {
			y[i] = 1
		}
	}
	fo, err := forest.Fit(cols, y, forest.Config{NumTrees: 2, MaxDepth: 3, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	fl, err := flat.CompileForest(fo)
	if err != nil {
		tb.Fatal(err)
	}
	payload, err := fl.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return ModelSnapshot{
		Format: SnapshotFormat, Model: 1, Selector: "wefr", TrainedThrough: 600,
		Groups: []GroupSnapshot{{
			Features: []string{"MWI_N"}, Predictor: predictorForest, FlatData: payload,
		}},
		Thresholds: []float64{0.5}, ConfigHash: "abcd",
	}
}

// realSnapshot returns the bytes of forestSnapshot, checked to load.
func realSnapshot(f *testing.F) []byte {
	f.Helper()
	data, err := json.Marshal(forestSnapshot(f))
	if err != nil {
		f.Fatal(err)
	}
	snap, err := DecodeSnapshot(data)
	if err == nil {
		_, err = NewScorer(snap, 1)
	}
	if err != nil {
		f.Fatalf("seed snapshot does not load: %v", err)
	}
	return data
}

// gbdtSnapshot returns forestSnapshot's bytes with its group tagged as
// the removed gradient-boosted family. Its payload is a valid forest,
// so only the tag stands between it and scoring.
func gbdtSnapshot(tb testing.TB) []byte {
	tb.Helper()
	snap := forestSnapshot(tb)
	snap.Groups[0].Predictor = predictorGBDT
	data, err := json.Marshal(snap)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzSnapshotDecode asserts the snapshot loader never panics on
// arbitrary bytes: any input either decodes to a snapshot whose groups
// build (or fail with an error), or is rejected with a wrapped
// ErrSnapshotCorrupt / ErrSnapshotFormat. Every snapshot that loads
// must score a batch of each group's input width without error.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"format": 1}`))
	f.Add([]byte(`{"format": 99, "groups": []}`))
	f.Add([]byte(`{"format": 2, "model": 1, "selector": "wefr",` +
		` "groups": [{"features": ["MWI_N"], "predictor": 1, "flat_data": "AAEC"}],` +
		` "thresholds": [0.5], "trained_through": 600, "config_hash": "abcd"}`))
	f.Add([]byte(`{"format": 2, "groups": [{"features": ["not-a-feature"]}], "thresholds": [0.1]}`))
	f.Add(realSnapshot(f))
	f.Add(gbdtSnapshot(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotFormat) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		// A decodable snapshot must survive group reconstruction
		// without panicking; errors (bad features, bogus payloads) are
		// fine, but a scorer that builds must score.
		s, err := NewScorer(snap, 1)
		if err != nil {
			return
		}
		const rows = 3
		for g := 0; g < s.NumGroups(); g++ {
			cols := make([][]float64, s.GroupInputWidth(g))
			for c := range cols {
				cols[c] = []float64{0, math.NaN(), float64(c)}
			}
			if err := s.ScoreBatch(g, cols, make([]float64, rows)); err != nil {
				t.Fatalf("group %d of a loaded snapshot fails to score: %v", g, err)
			}
		}
	})
}
