// Spill files move a partition's series columns from RAM to disk so
// fleet size is bounded by disk, not memory. A spill file holds one
// model's full series in a single flat, feature-major blob, written
// once and served read-only (memory-mapped where the platform allows).
//
// Layout (all integers little-endian):
//
//	[ 8] magic "REPROSP1"
//	[..] blob: float64 values, feature-major. For each feature f (in
//	     index order): for each drive d (in index order): that drive's
//	     series for days 0..LastDay_d. Every feature column therefore
//	     spans the same T = Σ_d (LastDay_d+1) cells, and the value for
//	     (f, d, day) lives at blob[f*T + off_d + day], with off the
//	     prefix sum of per-drive day counts.
//	[..] index: JSON (spillIndex)
//	[ 8] index byte length
//	[ 8] magic "REPROSP1"
//
// Feature-major order means a one-day fleet file is exactly the
// scoring matrix: each feature column is T contiguous float64s that a
// compiled flat model consumes with no gather step.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/smart"
)

const spillMagic = "REPROSP1"

// ErrBadSpill indicates a spill file that failed structural validation.
var ErrBadSpill = errors.New("store: bad spill file")

// spillIndex is the JSON footer describing the blob geometry.
type spillIndex struct {
	Model    int             `json:"model"`
	Days     int             `json:"days"` // day span the file covers
	Features []string        `json:"features"`
	Drives   []spillDriveIdx `json:"drives"`
}

type spillDriveIdx struct {
	ID      int `json:"id"`
	FailDay int `json:"fail_day"`
	LastDay int `json:"last_day"`
}

// spillFile is an opened, validated spill file.
type spillFile struct {
	data   []byte                 // whole file (mmap or aligned heap copy)
	mapped bool                   // data must be munmapped on close
	blob   []float64              // feature-major cells; len == len(feats)*total
	feats  []smart.Feature        // index order == blob column order
	index  [smart.NumFeatures]int // by Feature.Index(): position in feats, -1 when absent
	offs   []int64                // per-drive prefix offsets, len == nDrives+1
	total  int64                  // cells per feature column
	days   int                    // day span the file covers
}

// SpillPath returns the spill file path for a model under dir.
func SpillPath(dir string, m smart.ModelID) string {
	return filepath.Join(dir, m.String()+".spill")
}

// expectedLastDay is the last observed day a well-formed source reports
// for the ref: its failure day, or the final dataset day if it survives.
func expectedLastDay(ref dataset.DriveRef, days int) int {
	last := days - 1
	if ref.Failed() && ref.FailDay < last {
		last = ref.FailDay
	}
	return last
}

// WriteSpill streams model m's drives from src into dir's spill file,
// fetching series with the given parallelism but holding only O(workers)
// drive series in memory at any moment. The file is written to a temp
// name and renamed into place, so readers never observe a partial file.
// It returns the final path.
func WriteSpill(dir string, src dataset.Source, m smart.ModelID, workers int) (string, error) {
	refs := src.DrivesOf(m)
	if len(refs) == 0 {
		return "", fmt.Errorf("store: model %v has no drives to spill", m)
	}
	days := src.Days()
	if days <= 0 {
		return "", fmt.Errorf("store: source spans %d days", days)
	}
	// Probe the first drive for the feature set; every drive must match.
	probe, _, err := src.Series(refs[0])
	if err != nil {
		return "", fmt.Errorf("store: spill probe drive %d: %w", refs[0].ID, err)
	}
	probeTbl, err := newColTable(refs[0], probe)
	if err != nil {
		return "", err
	}
	feats := probeTbl.features()
	nDays := make([]int, len(refs))
	for i, r := range refs {
		nDays[i] = expectedLastDay(r, days) + 1
	}
	path := SpillPath(dir, m)
	fetch := func(i int) (*colTable, error) {
		cols, lastDay, err := src.Series(refs[i])
		if err != nil {
			return nil, err
		}
		if lastDay+1 != nDays[i] {
			return nil, fmt.Errorf("drive %d spans %d days, inventory implies %d", refs[i].ID, lastDay+1, nDays[i])
		}
		return newColTable(refs[i], cols)
	}
	if err := writeSpillFile(path, m, days, refs, feats, nDays, workers, fetch); err != nil {
		return "", err
	}
	return path, nil
}

// writeSpillFile writes one spill file from a per-drive column fetcher.
// Drive i's columns must each span exactly nDays[i] values and cover
// exactly the feats set.
func writeSpillFile(path string, m smart.ModelID, days int, refs []dataset.DriveRef,
	feats []smart.Feature, nDays []int, workers int,
	fetch func(i int) (*colTable, error)) error {

	offs := make([]int64, len(refs)+1)
	for i, nd := range nDays {
		if nd <= 0 || nd > days {
			return fmt.Errorf("store: spill drive %d spans %d days of %d", refs[i].ID, nd, days)
		}
		offs[i+1] = offs[i] + int64(nd)
	}
	total := offs[len(refs)]

	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".spill-*")
	if err != nil {
		return fmt.Errorf("store: spill: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if f != nil {
			f.Close()
		}
		if tmp != "" {
			os.Remove(tmp)
		}
	}()
	if _, err := f.WriteAt([]byte(spillMagic), 0); err != nil {
		return fmt.Errorf("store: spill: %w", err)
	}

	// Each drive's cells occupy a fixed region per feature column, so
	// workers stream independent positioned writes with no coordination.
	writeDrive := func(i int, buf []byte) ([]byte, error) {
		cols, err := fetch(i)
		if err != nil {
			return buf, err
		}
		if n := cols.reported(); n != len(feats) {
			return buf, fmt.Errorf("drive %d has %d features, file has %d", refs[i].ID, n, len(feats))
		}
		nd := nDays[i]
		if cap(buf) < nd*8 {
			buf = make([]byte, nd*8)
		}
		buf = buf[:nd*8]
		for fi, ft := range feats {
			col := cols[ft.Index()]
			if len(col) != nd {
				return buf, fmt.Errorf("drive %d feature %v has %d days, want %d", refs[i].ID, ft, len(col), nd)
			}
			for j, v := range col {
				binary.LittleEndian.PutUint64(buf[j*8:], math.Float64bits(v))
			}
			at := int64(len(spillMagic)) + (int64(fi)*total+offs[i])*8
			if _, err := f.WriteAt(buf, at); err != nil {
				return buf, err
			}
		}
		return buf, nil
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(refs) {
		workers = len(refs)
	}
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []byte
			for errs[w] == nil {
				i := int(next.Add(1)) - 1
				if i >= len(refs) {
					return
				}
				buf, errs[w] = writeDrive(i, buf)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("store: spill: %w", err)
		}
	}

	idx := spillIndex{Model: int(m), Days: days, Features: make([]string, len(feats))}
	for i, ft := range feats {
		idx.Features[i] = ft.String()
	}
	for _, r := range refs {
		idx.Drives = append(idx.Drives, spillDriveIdx{ID: r.ID, FailDay: r.FailDay, LastDay: 0})
	}
	for i := range idx.Drives {
		idx.Drives[i].LastDay = nDays[i] - 1
	}
	enc, err := json.Marshal(idx)
	if err != nil {
		return fmt.Errorf("store: spill index: %w", err)
	}
	foot := make([]byte, len(enc)+16)
	copy(foot, enc)
	binary.LittleEndian.PutUint64(foot[len(enc):], uint64(len(enc)))
	copy(foot[len(enc)+8:], spillMagic)
	blobEnd := int64(len(spillMagic)) + total*int64(len(feats))*8
	if _, err := f.WriteAt(foot, blobEnd); err != nil {
		return fmt.Errorf("store: spill: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: spill: %w", err)
	}
	// CreateTemp makes 0600 files; match os.Create's permissions.
	if err := f.Chmod(0o644); err != nil {
		return fmt.Errorf("store: spill: %w", err)
	}
	if err := f.Close(); err != nil {
		f = nil
		return fmt.Errorf("store: spill: %w", err)
	}
	f = nil
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: spill: %w", err)
	}
	tmp = ""
	return nil
}

// openSpill opens and validates a spill file for model m. The error
// wraps os.ErrNotExist when there is no file, letting callers fall back
// to the upstream source.
func openSpill(path string, m smart.ModelID) (*spillFile, []dataset.DriveRef, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	size := st.Size()
	if size < int64(2*len(spillMagic)+8+2) {
		f.Close()
		return nil, nil, fmt.Errorf("%w: %s: %d bytes", ErrBadSpill, path, size)
	}
	data, mapped, err := mapFile(f, size)
	f.Close() // the mapping (or copy) outlives the descriptor
	if err != nil {
		return nil, nil, fmt.Errorf("store: spill %s: %w", path, err)
	}
	sf, refs, err := parseSpill(data, mapped, m)
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, nil, fmt.Errorf("%w: %s: %v", ErrBadSpill, path, err)
	}
	return sf, refs, nil
}

// parseSpill validates a spill file's bytes and indexes them. Any input
// either parses into a file whose every cell lies inside the blob, or
// is refused with an error; it never panics.
func parseSpill(data []byte, mapped bool, m smart.ModelID) (*spillFile, []dataset.DriveRef, error) {
	size := int64(len(data))
	if size < int64(2*len(spillMagic)+8+2) {
		return nil, nil, fmt.Errorf("%d bytes", size)
	}
	if string(data[:8]) != spillMagic || string(data[size-8:]) != spillMagic {
		return nil, nil, errors.New("magic mismatch")
	}
	idxLen := int64(binary.LittleEndian.Uint64(data[size-16 : size-8]))
	idxStart := size - 16 - idxLen
	if idxLen <= 0 || idxStart < 8 {
		return nil, nil, fmt.Errorf("index length %d", idxLen)
	}
	var idx spillIndex
	if err := json.Unmarshal(data[idxStart:idxStart+idxLen], &idx); err != nil {
		return nil, nil, fmt.Errorf("index: %v", err)
	}
	if idx.Model != int(m) {
		return nil, nil, fmt.Errorf("file holds model %v, want %v", smart.ModelID(idx.Model), m)
	}
	if idx.Days <= 0 || len(idx.Features) == 0 || len(idx.Drives) == 0 {
		return nil, nil, fmt.Errorf("%d days, %d features, %d drives", idx.Days, len(idx.Features), len(idx.Drives))
	}
	feats := make([]smart.Feature, len(idx.Features))
	var index [smart.NumFeatures]int
	for i := range index {
		index[i] = -1
	}
	for i, name := range idx.Features {
		ft, err := smart.ParseFeature(name)
		if err != nil {
			return nil, nil, fmt.Errorf("feature %q: %v", name, err)
		}
		if index[ft.Index()] >= 0 {
			return nil, nil, fmt.Errorf("feature %v listed twice", ft)
		}
		feats[i] = ft
		index[ft.Index()] = i
	}
	// Every feature column spans total cells inside the file, which
	// bounds the day counts before any product can overflow.
	maxTotal := size / 8 / int64(len(feats))
	offs := make([]int64, len(idx.Drives)+1)
	refs := make([]dataset.DriveRef, len(idx.Drives))
	seen := make(map[int]bool, len(idx.Drives))
	for i, d := range idx.Drives {
		if d.LastDay < 0 || d.LastDay >= idx.Days {
			return nil, nil, fmt.Errorf("drive %d last day %d of %d", d.ID, d.LastDay, idx.Days)
		}
		if seen[d.ID] {
			return nil, nil, fmt.Errorf("drive %d listed twice", d.ID)
		}
		seen[d.ID] = true
		if n := int64(d.LastDay) + 1; n > maxTotal-offs[i] {
			return nil, nil, fmt.Errorf("drives span more than %d cells per feature", maxTotal)
		}
		offs[i+1] = offs[i] + int64(d.LastDay) + 1
		refs[i] = dataset.DriveRef{ID: d.ID, Model: m, FailDay: d.FailDay}
	}
	total := offs[len(idx.Drives)]
	blobBytes := total * int64(len(feats)) * 8
	if idxStart != 8+blobBytes {
		return nil, nil, fmt.Errorf("blob spans %d bytes, index starts at %d", blobBytes, idxStart)
	}
	return &spillFile{
		data:   data,
		mapped: mapped,
		blob:   floatView(data[8 : 8+blobBytes]),
		feats:  feats,
		index:  index,
		offs:   offs,
		total:  total,
		days:   idx.Days,
	}, refs, nil
}

func (sf *spillFile) close() error {
	if sf.mapped {
		return unmapFile(sf.data)
	}
	return nil
}

// column returns feature fi's full contiguous cell column.
func (sf *spillFile) column(fi int) []float64 {
	lo := int64(fi) * sf.total
	hi := lo + sf.total
	return sf.blob[lo:hi:hi]
}

// nativeLE reports whether the host is little-endian, which lets the
// blob be reinterpreted in place instead of decode-copied.
var nativeLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// floatView reinterprets the little-endian byte blob as float64s.
// b is 8-byte aligned by construction (page-aligned mmap, or the
// word-aligned buffer from readAligned, plus the 8-byte magic).
func floatView(b []byte) []float64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if nativeLE {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// readAligned reads the whole file into a word-aligned heap buffer; the
// fallback when the platform has no mmap.
func readAligned(f *os.File, size int64) ([]byte, error) {
	words := make([]uint64, (size+7)/8)
	b := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), b); err != nil {
		return nil, err
	}
	return b, nil
}
