package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/smart"
)

// tinySource is a small fleet for spill seeds: drives of different
// lifetimes, a few features, and NaN, ±Inf and -0 among the readings.
type tinySource struct{}

var tinyFeats = []smart.Feature{
	{Attr: smart.MWI, Kind: smart.Normalized},
	{Attr: smart.UCE, Kind: smart.Raw},
	{Attr: smart.RSC, Kind: smart.Raw},
}

func (tinySource) Days() int { return 6 }

func (tinySource) DrivesOf(m smart.ModelID) []dataset.DriveRef {
	if m != smart.MC1 {
		return nil
	}
	return []dataset.DriveRef{
		{ID: 7, Model: m, FailDay: -1},
		{ID: 3, Model: m, FailDay: 2},
		{ID: 11, Model: m, FailDay: 0},
	}
}

func (s tinySource) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	last := expectedLastDay(ref, s.Days())
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	cols := make(map[smart.Feature][]float64, len(tinyFeats))
	for fi, ft := range tinyFeats {
		col := make([]float64, last+1)
		for d := range col {
			col[d] = float64(ref.ID*100 + fi*10 + d)
			if (ref.ID+fi+d)%4 == 0 {
				col[d] = specials[(fi+d)%len(specials)]
			}
		}
		cols[ft] = col
	}
	return cols, last, nil
}

// rewriteFooter returns the spill file data with its JSON index
// replaced by edit's version of it, the blob unchanged.
func rewriteFooter(t testing.TB, data []byte, edit func(*spillIndex)) []byte {
	t.Helper()
	n := int64(binary.LittleEndian.Uint64(data[len(data)-16:]))
	start := int64(len(data)) - 16 - n
	var idx spillIndex
	if err := json.Unmarshal(data[start:start+n], &idx); err != nil {
		t.Fatal(err)
	}
	edit(&idx)
	enc, err := json.Marshal(idx)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), data[:start]...)
	out = append(out, enc...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(enc)))
	return append(out, spillMagic...)
}

// tinySpill returns the bytes of tinySource's MC1 spill file.
func tinySpill(t testing.TB) []byte {
	t.Helper()
	path, err := WriteSpill(t.TempDir(), tinySource{}, smart.MC1, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// parseAligned runs parseSpill over an 8-byte-aligned copy of data, as
// openSpill's mapping or heap read would hand it over.
func parseAligned(data []byte) (*spillFile, []dataset.DriveRef, error) {
	words := make([]uint64, (len(data)+7)/8+1)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(data))
	copy(buf, data)
	return parseSpill(buf, false, smart.MC1)
}

// TestParseSpillRejectsDuplicates: an index that lists one feature or
// one drive ID twice is refused with ErrBadSpill. Keeping the last of
// two equal drive IDs would serve one drive's cells for both.
func TestParseSpillRejectsDuplicates(t *testing.T) {
	good := tinySpill(t)
	if _, _, err := parseAligned(good); err != nil {
		t.Fatalf("valid file refused: %v", err)
	}
	cases := map[string]func(*spillIndex){
		"feature": func(idx *spillIndex) { idx.Features[2] = idx.Features[0] },
		"drive":   func(idx *spillIndex) { idx.Drives[2].ID = idx.Drives[0].ID },
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			data := rewriteFooter(t, good, edit)
			if _, _, err := parseAligned(data); err == nil {
				t.Fatal("parseSpill accepted a duplicate")
			}
			dir := t.TempDir()
			if err := os.WriteFile(SpillPath(dir, smart.MC1), data, 0o644); err != nil {
				t.Fatal(err)
			}
			st := Open(tinySource{}, Options{SpillDir: dir})
			defer st.Close()
			if err := st.Track(smart.MC1); !errors.Is(err, ErrBadSpill) {
				t.Fatalf("Track error %v, want ErrBadSpill", err)
			}
		})
	}
}

// FuzzParseSpill: parseSpill never panics, and a file it accepts serves
// every drive consistently: opened through a store, Columns of every
// catalog feature and SeriesCtx return the same cells, the same last
// day, and the same set of reported features. Seeds are valid files
// written by WriteSpill, their truncations, and footers with duplicate
// entries.
func FuzzParseSpill(f *testing.F) {
	one := oneDaySource{feats: tinyFeats}
	for id := range 4 {
		one.refs = append(one.refs, dataset.DriveRef{ID: 40 - id, Model: smart.MC1, FailDay: -1})
	}
	path, err := WriteSpill(f.TempDir(), one, smart.MC1, 1)
	if err != nil {
		f.Fatal(err)
	}
	oneDay, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{tinySpill(f), oneDay}
	good := seeds[0]
	seeds = append(seeds,
		rewriteFooter(f, good, func(idx *spillIndex) { idx.Features[1] = idx.Features[0] }),
		rewriteFooter(f, good, func(idx *spillIndex) { idx.Drives[1].ID = idx.Drives[0].ID }),
		rewriteFooter(f, good, func(idx *spillIndex) { idx.Drives[0].LastDay = 1 << 62 }),
		rewriteFooter(f, good, func(idx *spillIndex) { idx.Days = 1 << 40 }),
	)
	for _, s := range seeds[:2] {
		for _, cut := range []int{0, 7, 8, 25, 26, len(s) / 2, len(s) - 17, len(s) - 9, len(s) - 1} {
			seeds = append(seeds, s[:cut])
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}
	catalog := make([]smart.Feature, 0, smart.NumFeatures)
	for _, a := range smart.AllAttrs() {
		catalog = append(catalog, smart.Feature{Attr: a, Kind: smart.Raw}, smart.Feature{Attr: a, Kind: smart.Normalized})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, refs, err := parseAligned(data)
		if err != nil {
			return
		}
		dir := t.TempDir()
		if err := os.WriteFile(SpillPath(dir, smart.MC1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st := Open(tinySource{}, Options{SpillDir: dir})
		defer st.Close()
		if err := st.Track(smart.MC1); err != nil {
			t.Fatalf("parseSpill accepted the file, the store refused it: %v", err)
		}
		if err := st.AppendThrough(sf.days - 1); err != nil {
			t.Fatal(err)
		}
		snap := st.Snapshot()
		dst := make([][]float64, len(catalog))
		for _, ref := range refs {
			series, last, err := snap.SeriesCtx(context.Background(), ref)
			if err != nil {
				t.Fatalf("drive %d: SeriesCtx: %v", ref.ID, err)
			}
			colsLast, err := snap.Columns(context.Background(), ref, catalog, dst)
			if err != nil {
				t.Fatalf("drive %d: Columns: %v", ref.ID, err)
			}
			if colsLast != last {
				t.Fatalf("drive %d: Columns last day %d, SeriesCtx %d", ref.ID, colsLast, last)
			}
			reported := 0
			for i, ft := range catalog {
				want, ok := series[ft]
				if !ok {
					if dst[i] != nil {
						t.Fatalf("drive %d: Columns reads %v, SeriesCtx does not report it", ref.ID, ft)
					}
					continue
				}
				reported++
				if len(want) != last+1 || len(dst[i]) != len(want) {
					t.Fatalf("drive %d %v: Columns %d cells, SeriesCtx %d, last day %d", ref.ID, ft, len(dst[i]), len(want), last)
				}
				if !bytes.Equal(floatBytes(dst[i]), floatBytes(want)) {
					t.Fatalf("drive %d %v: Columns and SeriesCtx cells differ", ref.ID, ft)
				}
			}
			if reported != len(series) || reported != len(sf.feats) {
				t.Fatalf("drive %d: %d catalog features read, SeriesCtx has %d, file lists %d", ref.ID, reported, len(series), len(sf.feats))
			}
		}
	})
}

// floatBytes views a float64 slice's bits.
func floatBytes(xs []float64) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), 8*len(xs))
}
