package dataset

import (
	"math"
	"testing"

	"repro/internal/frame"
	"repro/internal/smart"
)

// dirtySource serves a two-drive model with injected defects in every
// column the MA1 spec lists: drive 1 has a short gap (days 10-11), a
// sentinel at day 20, and a long gap (days 30-47); drive 2 is clean.
type dirtySource struct{ days int }

func (d dirtySource) Days() int { return d.days }

func (d dirtySource) DrivesOf(m smart.ModelID) []DriveRef {
	if m != smart.MA1 {
		return nil
	}
	return []DriveRef{
		{ID: 1, Model: smart.MA1, FailDay: -1},
		{ID: 2, Model: smart.MA1, FailDay: d.days - 5},
	}
}

func (d dirtySource) Series(ref DriveRef) (map[smart.Feature][]float64, int, error) {
	cols := make(map[smart.Feature][]float64)
	for _, ft := range smart.MustSpec(smart.MA1).Features() {
		col := make([]float64, d.days)
		for day := range col {
			col[day] = float64(100 + day)
		}
		if ref.ID == 1 {
			col[10], col[11] = math.NaN(), math.NaN()
			col[20] = 65535
			for day := 30; day < 48 && day < d.days; day++ {
				col[day] = math.NaN()
			}
		}
		cols[ft] = col
	}
	return cols, d.days - 1, nil
}

func dirtyFrameOpts(src dirtySource, san *SanitizeOpts) FrameOpts {
	return FrameOpts{Model: smart.MA1, DayHi: src.days - 1, NegEvery: 1, Sanitize: san}
}

// mwiCol returns the frame's MWI_N column.
func mwiCol(t *testing.T, fr *frame.Frame) []float64 {
	t.Helper()
	col, err := fr.ColByName("MWI_N")
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func TestSanitizeImputesShortGapsMasksLong(t *testing.T) {
	src := dirtySource{days: 60}
	ctr := &DefectCounter{}
	fr, err := Frame(src, dirtyFrameOpts(src, &SanitizeOpts{
		MaxGap:    5,
		Sentinels: []float64{65535},
		Counter:   ctr,
	}))
	if err != nil {
		t.Fatal(err)
	}
	col := mwiCol(t, fr) // one row per drive-day, drive 1 first
	// Day 10-11 (short gap) imputed from day 9's value 109.
	if col[10] != 109 || col[11] != 109 {
		t.Errorf("short gap imputed to %v, %v, want 109", col[10], col[11])
	}
	// Sentinel at day 20 scrubbed then imputed from day 19.
	if col[20] != 119 {
		t.Errorf("sentinel cell = %v, want imputed 119", col[20])
	}
	// Long gap: first MaxGap days imputed, the rest stays missing.
	if col[34] != 129 {
		t.Errorf("day 34 = %v, want imputed 129 (within MaxGap of day 29)", col[34])
	}
	if !math.IsNaN(col[40]) {
		t.Errorf("day 40 = %v, want NaN (beyond MaxGap)", col[40])
	}
	st := ctr.Snapshot()
	if st.SentinelCells == 0 || st.ImputedCells == 0 || st.ResidualCells == 0 {
		t.Errorf("counter did not see all defect classes: %+v", st)
	}
}

func TestSanitizeNilIsExactLegacyPath(t *testing.T) {
	src := dirtySource{days: 60}
	a, err := Frame(src, dirtyFrameOpts(src, nil))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Frame(src, dirtyFrameOpts(src, nil))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumFeatures() != len(smart.MustSpec(smart.MA1).Features()) {
		t.Fatalf("legacy frame gained columns: %v", a.Names())
	}
	for c := 0; c < a.NumFeatures(); c++ {
		ca, cb := a.Col(c), b.Col(c)
		for i := range ca {
			same := ca[i] == cb[i] || (ca[i] != ca[i] && cb[i] != cb[i])
			if !same {
				t.Fatalf("legacy path not deterministic at col %d row %d", c, i)
			}
		}
	}
	// NaNs flow through untouched on the legacy path.
	if v := mwiCol(t, a)[10]; !math.IsNaN(v) {
		t.Errorf("legacy path altered missing cell: %v", v)
	}
}

func TestSanitizeAllMissingColumnStaysMissing(t *testing.T) {
	col := []float64{math.NaN(), math.NaN(), math.NaN()}
	s, i, r := sanitizeColumn(col, &SanitizeOpts{})
	if s != 0 || i != 0 || r != 3 {
		t.Errorf("all-missing column: sentinels %d imputed %d residual %d", s, i, r)
	}
	for _, v := range col {
		if !math.IsNaN(v) {
			t.Error("all-missing column was fabricated")
		}
	}
}

func TestSanitizeLeadingBackfill(t *testing.T) {
	col := []float64{math.NaN(), math.NaN(), 5, 6}
	_, imputed, residual := sanitizeColumn(col, &SanitizeOpts{MaxGap: 3})
	if col[0] != 5 || col[1] != 5 {
		t.Errorf("leading gap = %v, want backfill from 5", col[:2])
	}
	if imputed != 2 || residual != 0 {
		t.Errorf("imputed %d residual %d, want 2 / 0", imputed, residual)
	}
	// Inf counts as missing.
	col2 := []float64{1, math.Inf(1), 3}
	san := &SanitizeOpts{}
	miss := san.Missing(col2[1])
	sanitizeColumn(col2, san)
	if col2[1] != 1 || !miss {
		t.Errorf("Inf cell: value %v mask %v, want imputed 1 / true", col2[1], miss)
	}
}
