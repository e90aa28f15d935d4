package dataset

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/featgen"
	"repro/internal/simulate"
	"repro/internal/smart"
)

func testSource(t *testing.T) FleetSource {
	t.Helper()
	f, err := simulate.New(simulate.Config{TotalDrives: 600, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return FleetSource{Fleet: f}
}

func TestDriveRefLabel(t *testing.T) {
	healthy := DriveRef{ID: 1, FailDay: -1}
	failing := DriveRef{ID: 2, FailDay: 100}
	tests := []struct {
		ref  DriveRef
		day  int
		want int
	}{
		{healthy, 50, 0},
		{failing, 69, 0},  // 31 days before failure
		{failing, 70, 1},  // exactly 30 days before
		{failing, 100, 1}, // failure day itself
		{failing, 101, 0}, // after (not observed anyway)
		{failing, 0, 0},
	}
	for _, tt := range tests {
		if got := tt.ref.Label(tt.day); got != tt.want {
			t.Errorf("Label(fail=%d, day=%d) = %d, want %d", tt.ref.FailDay, tt.day, got, tt.want)
		}
	}
	if healthy.Failed() || !failing.Failed() {
		t.Error("Failed() mismatch")
	}
}

func TestFrameBasic(t *testing.T) {
	src := testSource(t)
	fr, err := Frame(src, FrameOpts{Model: smart.MC1, NegEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	spec := smart.MustSpec(smart.MC1)
	if fr.NumFeatures() != 2*len(spec.Attrs) {
		t.Errorf("features = %d, want %d", fr.NumFeatures(), 2*len(spec.Attrs))
	}
	if fr.NumRows() == 0 {
		t.Fatal("no rows")
	}
	if fr.Positives() == 0 {
		t.Error("expected positive samples")
	}
	if fr.Positives() >= fr.NumRows()/2 {
		t.Error("positives should be the minority class")
	}
	if !fr.HasMeta() {
		t.Fatal("frame should carry metadata")
	}
	// MWI metadata in range.
	for i := 0; i < fr.NumRows(); i += 97 {
		m := fr.Meta(i)
		if m.MWI < 1 || m.MWI > 100 {
			t.Fatalf("meta MWI = %v", m.MWI)
		}
		if m.Day < 0 || m.Day >= src.Days() {
			t.Fatalf("meta Day = %d", m.Day)
		}
	}
}

func TestFrameWorkerCountInvariance(t *testing.T) {
	// Per-drive chunks are concatenated in inventory order, so the
	// frame must be byte-for-byte identical for any worker count.
	src := testSource(t)
	opts := FrameOpts{Model: smart.MC1, NegEvery: 10, Expand: true, DayLo: 500, DayHi: 560}
	opts.Workers = 1
	serial, err := Frame(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 7
	parallel, err := Frame(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if serial.NumRows() != parallel.NumRows() || serial.NumFeatures() != parallel.NumFeatures() {
		t.Fatalf("shape: serial %dx%d, parallel %dx%d",
			serial.NumRows(), serial.NumFeatures(), parallel.NumRows(), parallel.NumFeatures())
	}
	for c := 0; c < serial.NumFeatures(); c++ {
		cs, cp := serial.Col(c), parallel.Col(c)
		for i := range cs {
			if cs[i] != cp[i] {
				t.Fatalf("col %d row %d: serial %v != parallel %v", c, i, cs[i], cp[i])
			}
		}
	}
	for i := 0; i < serial.NumRows(); i++ {
		if serial.Labels()[i] != parallel.Labels()[i] || serial.Meta(i) != parallel.Meta(i) {
			t.Fatalf("row %d label/meta mismatch", i)
		}
	}
}

func TestFrameAllPositiveDaysKept(t *testing.T) {
	src := testSource(t)
	fr, err := Frame(src, FrameOpts{Model: smart.MC1, NegEvery: 500})
	if err != nil {
		t.Fatal(err)
	}
	// With sparse negatives, positives per failed drive should still
	// be the full pre-failure window (bounded by dataset span).
	perDrive := map[int]int{}
	for i := 0; i < fr.NumRows(); i++ {
		if fr.Labels()[i] == 1 {
			perDrive[fr.Meta(i).DriveID]++
		}
	}
	for _, d := range src.Fleet.Failures(smart.MC1) {
		want := PredictionWindow + 1
		if d.FailDay < PredictionWindow {
			want = d.FailDay + 1
		}
		if got := perDrive[d.ID]; got != want {
			t.Errorf("drive %d (fail %d) has %d positive samples, want %d", d.ID, d.FailDay, got, want)
		}
	}
}

func TestFrameDayRange(t *testing.T) {
	src := testSource(t)
	fr, err := Frame(src, FrameOpts{Model: smart.MA1, DayLo: 100, DayHi: 200, NegEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fr.NumRows(); i++ {
		d := fr.Meta(i).Day
		if d < 100 || d > 200 {
			t.Fatalf("sample day %d outside [100, 200]", d)
		}
	}
}

func TestFrameExpand(t *testing.T) {
	src := testSource(t)
	feats := []smart.Feature{
		{Attr: smart.UCE, Kind: smart.Raw},
		{Attr: smart.MWI, Kind: smart.Normalized},
	}
	fr, err := Frame(src, FrameOpts{
		Model: smart.MC1, NegEvery: 20, Features: feats, Expand: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * (1 + featgen.NumGenerated(featgen.DefaultWindows))
	if fr.NumFeatures() != want {
		t.Fatalf("expanded features = %d, want %d", fr.NumFeatures(), want)
	}
	// Generated column names present.
	if fr.ColIndex("UCE_R.max7") < 0 || fr.ColIndex("MWI_N.wma3") < 0 {
		t.Errorf("expanded names missing: %v", fr.Names())
	}
	// max over a window >= the raw value that day.
	raw, _ := fr.ColByName("UCE_R")
	mx, _ := fr.ColByName("UCE_R.max7")
	for i := range raw {
		if mx[i] < raw[i] {
			t.Fatalf("max7 %v < raw %v at %d", mx[i], raw[i], i)
		}
	}
}

func TestFrameMWIFilter(t *testing.T) {
	src := testSource(t)
	lo, err := Frame(src, FrameOpts{Model: smart.MC1, NegEvery: 5, MWIBelow: 60})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < lo.NumRows(); i++ {
		if lo.Meta(i).MWI >= 60 {
			t.Fatalf("MWIBelow leaked sample at MWI %v", lo.Meta(i).MWI)
		}
	}
	hi, err := Frame(src, FrameOpts{Model: smart.MC1, NegEvery: 5, MWIAtLeast: 60})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hi.NumRows(); i++ {
		if hi.Meta(i).MWI < 60 {
			t.Fatalf("MWIAtLeast leaked sample at MWI %v", hi.Meta(i).MWI)
		}
	}
}

func TestFrameOptErrors(t *testing.T) {
	src := testSource(t)
	cases := []FrameOpts{
		{},                            // invalid model
		{Model: smart.MC1, DayLo: -1}, // bad range
		{Model: smart.MC1, DayLo: 100, DayHi: 50},
		{Model: smart.MC1, DayHi: 100000},
		{Model: smart.MC1, MWIBelow: 10, MWIAtLeast: 20},
	}
	for i, opts := range cases {
		if _, err := Frame(src, opts); !errors.Is(err, ErrBadOpts) {
			t.Errorf("case %d error = %v, want ErrBadOpts", i, err)
		}
	}
}

func TestFrameNoSamples(t *testing.T) {
	src := testSource(t)
	// An impossible MWI filter yields no samples.
	_, err := Frame(src, FrameOpts{Model: smart.MC1, MWIBelow: 0.5})
	if !errors.Is(err, ErrNoSamples) {
		t.Errorf("error = %v, want ErrNoSamples", err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	f, err := simulate.New(simulate.Config{TotalDrives: 300, Days: 120, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := FleetSource{Fleet: f}

	var logBuf, ticketBuf bytes.Buffer
	if err := WriteModelCSV(&logBuf, src, smart.MB2); err != nil {
		t.Fatal(err)
	}
	models := []smart.ModelID{smart.MB2}
	if err := WriteTicketsCSV(&ticketBuf, src, models); err != nil {
		t.Fatal(err)
	}

	logs, err := ReadModelCSV(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tickets, err := ReadTicketsCSV(bytes.NewReader(ticketBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	logs.ApplyTickets(tickets)

	if logs.Model() != smart.MB2 {
		t.Errorf("model = %v", logs.Model())
	}
	if logs.Days() != 120 {
		t.Errorf("days = %d, want 120", logs.Days())
	}

	wantDrives := src.DrivesOf(smart.MB2)
	gotDrives := logs.DrivesOf(smart.MB2)
	if len(gotDrives) != len(wantDrives) {
		t.Fatalf("drives = %d, want %d", len(gotDrives), len(wantDrives))
	}
	// Fail days survive the round trip via tickets.
	wantFail := map[int]int{}
	for _, d := range wantDrives {
		wantFail[d.ID] = d.FailDay
	}
	for _, d := range gotDrives {
		if wantFail[d.ID] != d.FailDay {
			t.Errorf("drive %d fail day = %d, want %d", d.ID, d.FailDay, wantFail[d.ID])
		}
	}

	// Series data identical.
	ref := gotDrives[0]
	gotSeries, gotLast, err := logs.Series(ref)
	if err != nil {
		t.Fatal(err)
	}
	wantSeries, wantLast, err := src.Series(ref)
	if err != nil {
		t.Fatal(err)
	}
	if gotLast != wantLast {
		t.Fatalf("lastDay = %d, want %d", gotLast, wantLast)
	}
	for ft, wcol := range wantSeries {
		gcol, ok := gotSeries[ft]
		if !ok {
			t.Fatalf("missing feature %v after round trip", ft)
		}
		for i := range wcol {
			if gcol[i] != wcol[i] {
				t.Fatalf("feature %v day %d: %v != %v", ft, i, gcol[i], wcol[i])
			}
		}
	}

	// Frames built from both sources agree.
	opts := FrameOpts{Model: smart.MB2, NegEvery: 9}
	fa, err := Frame(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Frame(logs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fa.NumRows() != fb.NumRows() || fa.Positives() != fb.Positives() {
		t.Errorf("frame mismatch: (%d, %d) vs (%d, %d)", fa.NumRows(), fa.Positives(), fb.NumRows(), fb.Positives())
	}
}

func TestReadModelCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":              "",
		"bad header":         "a,b,c\n",
		"bad feature":        "day,model,drive_id,BOGUS_R\n",
		"no rows":            "day,model,drive_id,UCE_R\n",
		"bad day":            "day,model,drive_id,UCE_R\nx,MC1,1,0\n",
		"bad model":          "day,model,drive_id,UCE_R\n0,NOPE,1,0\n",
		"bad value":          "day,model,drive_id,UCE_R\n0,MC1,1,zzz\n",
		"gap in days":        "day,model,drive_id,UCE_R\n0,MC1,1,0\n2,MC1,1,0\n",
		"mixed models":       "day,model,drive_id,UCE_R\n0,MC1,1,0\n0,MC2,2,0\n",
		"blank cell":         "day,model,drive_id,UCE_R\n0,MC1,1,\n",
		"repeated day":       "day,model,drive_id,UCE_R\n0,MC1,1,0\n0,MC1,1,1\n",
		"day out of order":   "day,model,drive_id,UCE_R\n0,MC1,1,0\n1,MC1,1,1\n0,MC1,1,2\n",
		"first day not zero": "day,model,drive_id,UCE_R\n3,MC1,1,0\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadModelCSV(bytes.NewReader([]byte(in))); !errors.Is(err, ErrBadCSV) {
				t.Errorf("error = %v, want ErrBadCSV", err)
			}
		})
	}
}

// TestGapWithoutOptionFails checks that a missing day in a drive's
// series is rejected by the reader rather than filled: gap handling
// belongs to the frame sanitizer, which sees a NaN reading, not a
// skipped row.
func TestGapWithoutOptionFails(t *testing.T) {
	in := "day,model,drive_id,UCE_R,UCE_N\n0,MC1,1,1,100\n2,MC1,1,2,99\n"
	if _, err := ReadModelCSV(bytes.NewReader([]byte(in))); !errors.Is(err, ErrBadCSV) {
		t.Errorf("error = %v, want ErrBadCSV", err)
	}
}

// TestNaNCellReadsAsMissing checks the one way a CSV carries a missing
// reading: the strict reader rejects a blank cell but parses a literal
// NaN, and the frame sanitizer imputes it.
func TestNaNCellReadsAsMissing(t *testing.T) {
	in := "day,model,drive_id,UCE_R\n0,MC1,1,1\n1,MC1,1,NaN\n2,MC1,1,3\n"
	logs, err := ReadModelCSV(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	uceR := smart.Feature{Attr: smart.UCE, Kind: smart.Raw}
	cols, _, err := logs.Series(DriveRef{ID: 1, Model: smart.MC1, FailDay: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(cols[uceR][1]) {
		t.Fatalf("NaN cell read as %v", cols[uceR][1])
	}
	ctr := &DefectCounter{}
	fr, err := Frame(logs, FrameOpts{
		Model: smart.MC1, NegEvery: 1, Features: []smart.Feature{uceR},
		Sanitize: &SanitizeOpts{Counter: ctr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ctr.Snapshot().ImputedCells; got == 0 {
		t.Errorf("ImputedCells = %d, want > 0", got)
	}
	for i, v := range fr.Col(0) {
		if math.IsNaN(v) {
			t.Errorf("frame row %d still NaN after sanitize", i)
		}
	}
}

func TestReadTicketsCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":     "",
		"bad day":   "day,model,drive_id\nx,MC1,1\n",
		"bad model": "day,model,drive_id\n0,NOPE,1\n",
		"bad drive": "day,model,drive_id\n0,MC1,x\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadTicketsCSV(bytes.NewReader([]byte(in))); !errors.Is(err, ErrBadCSV) {
				t.Errorf("error = %v, want ErrBadCSV", err)
			}
		})
	}
}

func TestLogsDrivesOfOtherModel(t *testing.T) {
	in := "day,model,drive_id,UCE_R\n0,MC1,1,0\n1,MC1,1,2\n2,MC1,1,3\n"
	logs, err := ReadModelCSV(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	if got := logs.DrivesOf(smart.MA1); got != nil {
		t.Errorf("DrivesOf(other model) = %v, want nil", got)
	}
	refs := logs.DrivesOf(smart.MC1)
	if len(refs) != 1 || refs[0].FailDay != -1 {
		t.Errorf("refs = %v", refs)
	}
	// Ticket for an unknown drive is ignored.
	logs.ApplyTickets([]Ticket{{DriveID: 99, Model: smart.MC1, Day: 1}})
	if logs.DrivesOf(smart.MC1)[0].FailDay != -1 {
		t.Error("ticket for unknown drive should be ignored")
	}
}
