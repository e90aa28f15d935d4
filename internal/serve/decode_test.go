package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/smart"
)

// The reference below is the decode path the single-pass decoder
// replaced: encoding/json into the request types with unknown fields
// disallowed and a trailing-data check, then a validation that ranges
// over the series map. FuzzSeriesDecode holds the decoder to it.

// refDecodeBody decodes body into v as the daemon did, under a body
// limit, and returns 0 or the error status.
func refDecodeBody(body []byte, limit int64, v any) int {
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit))
	dec.DisallowUnknownFields()
	var tooBig *http.MaxBytesError
	if err := dec.Decode(v); err != nil {
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge
		}
		return http.StatusBadRequest
	}
	if _, err := dec.Token(); err != io.EOF {
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge
		}
		return http.StatusBadRequest
	}
	return 0
}

// refSeriesCodes is the former map-ordered series validation, widened
// to every status some map order gives: it ranged over the map and
// reported the first fault it met. An empty set accepts, with n the
// common column length.
func refSeriesCodes(raw map[string][]float64, maxDays int) (codes map[int]bool, n int) {
	codes = map[int]bool{}
	if len(raw) == 0 {
		codes[http.StatusBadRequest] = true
		return codes, 0
	}
	fault := func(name string, vals []float64) int {
		if _, err := smart.ParseFeature(name); err != nil || len(vals) == 0 {
			return http.StatusBadRequest
		}
		if len(vals) > maxDays {
			return http.StatusRequestEntityTooLarge
		}
		for _, v := range vals {
			if math.IsInf(v, 0) {
				return http.StatusBadRequest
			}
		}
		return 0
	}
	for first, vals := range raw {
		if c := fault(first, vals); c != 0 {
			codes[c] = true
			continue
		}
		n = len(vals)
		for name, other := range raw {
			c := fault(name, other)
			if c == 0 && len(other) != n {
				c = http.StatusBadRequest
			}
			if name != first && c != 0 {
				codes[c] = true
			}
		}
	}
	return codes, n
}

// Mirrors of the request types with pointer column cells, decoded
// from the same body to find the nulls (nil) that the request types
// decode to 0.
type (
	nullScore struct {
		Model   string                `json:"model"`
		DriveID *int                  `json:"drive_id,omitempty"`
		Day     *int                  `json:"day,omitempty"`
		MWI     *float64              `json:"mwi,omitempty"`
		Series  map[string][]*float64 `json:"series,omitempty"`
	}
	nullBatch struct {
		Model  string      `json:"model"`
		Drives []nullDrive `json:"drives"`
	}
	nullDrive struct {
		DriveID *int                  `json:"drive_id,omitempty"`
		Day     *int                  `json:"day,omitempty"`
		MWI     *float64              `json:"mwi,omitempty"`
		Series  map[string][]*float64 `json:"series,omitempty"`
	}
)

// validDrive is a drive that decoded and validated: its columns by
// feature index, which cells were null (reference only), its scored
// day and its routing override.
type validDrive struct {
	cols  map[int][]float64
	nulls map[int][]bool
	day   int
	mwi   *float64
}

// refOutcome runs the reference over a body up to scoring on a
// store-less daemon serving "serving": the statuses the first failure
// may have (empty when every drive validates) and the drives that
// validated before it.
func refOutcome(t *testing.T, body []byte, batch bool, limit int64, maxDays, maxDrives int) (map[int]bool, []validDrive) {
	type drive struct {
		driveID, day *int
		mwi          *float64
		series       map[string][]float64
		nulls        map[string][]*float64
	}
	var model string
	var drives []drive
	one := func(c int) map[int]bool { return map[int]bool{c: true} }
	if batch {
		var req BatchRequest
		var nulls nullBatch
		if c := refDecodeBody(body, limit, &req); c != 0 {
			return one(c), nil
		}
		if c := refDecodeBody(body, limit, &nulls); c != 0 || len(nulls.Drives) != len(req.Drives) {
			t.Fatalf("the null mirror decodes %q with status %d, the request type with 0", body, c)
		}
		model = req.Model
		for i, d := range req.Drives {
			drives = append(drives, drive{d.DriveID, d.Day, d.MWI, d.Series, nulls.Drives[i].Series})
		}
	} else {
		var req ScoreRequest
		var nulls nullScore
		if c := refDecodeBody(body, limit, &req); c != 0 {
			return one(c), nil
		}
		if c := refDecodeBody(body, limit, &nulls); c != 0 {
			t.Fatalf("the null mirror decodes %q with status %d, the request type with 0", body, c)
		}
		model = req.Model
		drives = []drive{{req.DriveID, req.Day, req.MWI, req.Series, nulls.Series}}
	}
	if model != "serving" {
		return one(http.StatusNotFound), nil
	}
	if batch && len(drives) == 0 {
		return one(http.StatusBadRequest), nil
	}
	if batch && len(drives) > maxDrives {
		return one(http.StatusRequestEntityTooLarge), nil
	}
	var valid []validDrive
	for _, d := range drives {
		if d.series == nil {
			if d.driveID == nil {
				return one(http.StatusBadRequest), valid
			}
			return one(http.StatusNotImplemented), valid
		}
		if d.driveID != nil {
			return one(http.StatusBadRequest), valid
		}
		codes, n := refSeriesCodes(d.series, maxDays)
		if len(codes) > 0 {
			return codes, valid
		}
		v := validDrive{cols: map[int][]float64{}, nulls: map[int][]bool{}, day: n - 1, mwi: d.mwi}
		if d.day != nil {
			if *d.day < 0 || *d.day >= n {
				return one(http.StatusBadRequest), valid
			}
			v.day = *d.day
		}
		for name, col := range d.series {
			ft, _ := smart.ParseFeature(name)
			v.cols[ft.Index()] = col
			isNull := make([]bool, len(col))
			for j, p := range d.nulls[name] {
				isNull[j] = p == nil
			}
			v.nulls[ft.Index()] = isNull
		}
		valid = append(valid, v)
	}
	return map[int]bool{}, valid
}

// decoderOutcome runs the single-pass decoder and the daemon's own
// resolve step over a body on store-less daemon s: the status of the
// first failure (0 when every drive validates) and the drives that
// validated before it.
func decoderOutcome(s *Server, body []byte, batch bool, limit int64, chunked bool) (int, []validDrive) {
	req := httptest.NewRequest("POST", "/", bytes.NewReader(body))
	if chunked {
		req.ContentLength = -1
	}
	b, err := decodeSeries(httptest.NewRecorder(), req, batch, limit, s.opts.MaxBatchRequest)
	if err != nil {
		return errCode(err), nil
	}
	defer b.release()
	art, ok := s.artifactByName(b.model)
	if !ok {
		return http.StatusNotFound, nil
	}
	if batch && b.n == 0 {
		return http.StatusBadRequest, nil
	}
	if batch && b.n > s.opts.MaxBatchRequest {
		return http.StatusRequestEntityTooLarge, nil
	}
	sv := art.cur.Load()
	var valid []validDrive
	for i := range b.drives[:b.n] {
		d := &b.drives[i]
		tbl, day, _, err := s.resolveSeries(context.Background(), sv, b, d)
		if err != nil {
			return errCode(err), valid
		}
		v := validDrive{cols: map[int][]float64{}, day: day, mwi: d.mwiOverride()}
		for f, col := range tbl {
			if col != nil {
				v.cols[f] = append([]float64(nil), col...)
			}
		}
		valid = append(valid, v)
	}
	return 0, valid
}

// checkDecode compares the decoder with the reference on one body.
func checkDecode(t *testing.T, s *Server, body []byte, batch bool, limit int64, chunked bool) {
	t.Helper()
	wantCodes, want := refOutcome(t, body, batch, limit, s.opts.MaxSeriesDays, s.opts.MaxBatchRequest)
	code, got := decoderOutcome(s, body, batch, limit, chunked)
	if len(wantCodes) == 0 {
		wantCodes[0] = true
	}
	if !wantCodes[code] {
		t.Fatalf("batch=%v limit %d body %q: decoder status %d, reference %v", batch, limit, body, code, sortedCodes(wantCodes))
	}
	if len(got) != len(want) {
		t.Fatalf("body %q: decoder validated %d drives, reference %d", body, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.day != w.day {
			t.Fatalf("body %q drive %d: day %d, reference %d", body, i, g.day, w.day)
		}
		if (g.mwi == nil) != (w.mwi == nil) || g.mwi != nil && math.Float64bits(*g.mwi) != math.Float64bits(*w.mwi) {
			t.Fatalf("body %q drive %d: mwi override %v, reference %v", body, i, g.mwi, w.mwi)
		}
		if len(g.cols) != len(w.cols) {
			t.Fatalf("body %q drive %d: %d columns, reference %d", body, i, len(g.cols), len(w.cols))
		}
		for f, wc := range w.cols {
			gc := g.cols[f]
			if len(gc) != len(wc) {
				t.Fatalf("body %q drive %d feature %s: %d values, reference %d", body, i, featNames[f], len(gc), len(wc))
			}
			for j := range wc {
				// The one allowed difference: a null cell is NaN, not 0.
				if w.nulls[f][j] {
					if !math.IsNaN(gc[j]) || wc[j] != 0 {
						t.Fatalf("body %q drive %d %s[%d]: null decodes to %v, reference %v", body, i, featNames[f], j, gc[j], wc[j])
					}
					continue
				}
				if math.Float64bits(gc[j]) != math.Float64bits(wc[j]) {
					t.Fatalf("body %q drive %d %s[%d]: %v, reference %v", body, i, featNames[f], j, gc[j], wc[j])
				}
			}
		}
	}
}

func sortedCodes(m map[int]bool) []int {
	var out []int
	for c := range m {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// fuzzLimit maps the fuzzer's limit input to a body limit: 0 is the
// daemon default, anything else a small cap the body can cross.
func fuzzLimit(l uint16) int64 {
	if l == 0 {
		return DefaultMaxBodyBytes
	}
	return int64(l)
}

// inlineWindows cuts n inline series from the fixture fleet the way
// perfbench does: an MC1 drive-day after training with MaxWindow days
// of history before it, every column the drive reports.
func inlineWindows(tb testing.TB, n int, seed int64) []map[string][]float64 {
	tb.Helper()
	fixtureOnce.Do(buildFixture)
	if fixture.err != nil {
		tb.Fatalf("fixture: %v", fixture.err)
	}
	sc, err := engine.NewScorer(fixture.snapA, 1)
	if err != nil {
		tb.Fatal(err)
	}
	window := sc.MaxWindow()
	src, drives := fixture.src, fixture.src.DrivesOf(testModel)
	lo, hi := max(fixture.snapA.TrainedThrough+1, window), src.Days()-1
	rng := rand.New(rand.NewSource(seed))
	var out []map[string][]float64
	for len(out) < n {
		ref := drives[rng.Intn(len(drives))]
		day := lo + rng.Intn(hi-lo+1)
		cols, last, err := src.Series(ref)
		if err != nil {
			tb.Fatal(err)
		}
		if day > last {
			continue
		}
		series := make(map[string][]float64, len(cols))
		for ft, col := range cols {
			series[ft.String()] = col[day-window : day+1]
		}
		out = append(out, series)
	}
	return out
}

// batchBody encodes windows as a batch body for "serving".
func batchBody(tb testing.TB, windows []map[string][]float64) []byte {
	tb.Helper()
	req := BatchRequest{Model: "serving"}
	for _, w := range windows {
		req.Drives = append(req.Drives, BatchDrive{Series: w})
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// decodeTraps are bodies at the edges of the wire contract, each sent
// as a score body and, with "series" wrapped in a drive, a batch body.
var decodeTraps = []string{
	`{"model":"serving","series":{"MWI_N":[0.5,0.25],"UCE_R":[1,2]}}`,
	`{"model":"serving","series":{"MWI_N":[0.5,null],"UCE_R":[null,2]}}`,
	`{"model":"serving","bogus":1,"series":{"MWI_N":[0.5]}}`,
	`{"model":"serving","series":{"MWI_N":[0.5]}} {"again":1}`,
	`{"model":"serving","series":{"MWI_N":[0.5]}}  ]`,
	`{"model":"serving","series":{"WARP_CORE":[0.5]}}`,
	`{"model":"serving","series":{"MWI_N":[]}}`,
	`{"model":"serving","series":{"MWI_N":null}}`,
	`{"model":"serving","series":{"MWI_N":[0.5,0.5],"UCE_R":[0.5]}}`,
	`{"model":"serving","series":{"MWI_N":[1e999]}}`,
	`{"model":"serving","series":{"MWI_N":[-1e999]}}`,
	`{"model":"serving","series":{"MWI_N":[1e-999, -0, 0.1e1, 1E+2, 123456789012345678901234567890]}}`,
	`{"model":"serving","series":{"MWI_N":[01]}}`,
	`{"model":"serving","series":{"MWI_N":[.5]}}`,
	`{"model":"serving","series":{"MWI_N":[+1]}}`,
	`{"model":"serving","series":{"MWI_N":[0x1p3]}}`,
	`{"model":"serving","series":{"MWI_N":[Inf]}}`,
	`{"model":"serving","series":{"MWI_N":[NaN]}}`,
	`{"model":"serving","series":{"MWI_N":[1.]}}`,
	`{"model":"serving","series":{"MWI_N":[-]}}`,
	`{"model":"serving","series":{"MWI_N":["1"]}}`,
	`{"model":"serving","series":{"MWI_N":[[1]]}}`,
	`{"model":"serving","series":{"MWI_N":[1,]}}`,
	`{"model":"serving","series":{"MWI_N":[0.5],"UCE_R":[0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5]}}`,
	`{"model":"serving","series":{"WARP_CORE":[1],"UCE_R":[0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5]}}`,
	`{"model":"nope","series":{"WARP_CORE":[0.5]}}`,
	`{"MODEL":"serving","Series":{"MWI_N":[0.5]}}`,
	`{"model":"serving","ſeries":{"MWI_N":[0.5]},"DAY":0}`,
	`{"model":"serving","series":{"MWI_N":[0.5]}}`,
	`{"model":"serving","series":{"MWI_N\ud800":[0.5]}}`,
	`{"model":"serving😀","series":{"MWI_N":[0.5]}}`,
	"{\"model\":\"serving\",\"series\":{\"MWI_N\xff\":[0.5]}}",
	"{\"model\":\"serving\",\"series\":{\"MWI_N\x01\":[0.5]}}",
	`{"model":"serving","series":{"MWI_N":[0.5]},"series":{"UCE_R":[0.25]}}`,
	`{"model":"serving","series":{"MWI_N":[0.5]},"series":{"MWI_N":[0.25,0.5]}}`,
	`{"model":"serving","series":{"WARP":[1]},"series":null,"drive_id":3}`,
	`{"model":"serving","series":null}`,
	`{"model":"serving","series":{}}`,
	`{"model":"serving","series":42}`,
	`{"model":"serving","model":null,"series":{"MWI_N":[0.5]}}`,
	`{"model":"serving","drive_id":1,"series":{"MWI_N":[0.5]}}`,
	`{"model":"serving","drive_id":1,"drive_id":null,"series":{"MWI_N":[0.5]}}`,
	`{"model":"serving","drive_id":1.5}`,
	`{"model":"serving","drive_id":99999999999999999999}`,
	`{"model":"serving","drive_id":3}`,
	`{"model":"serving"}`,
	`{"model":"serving","day":1,"series":{"MWI_N":[0.5,0.5]}}`,
	`{"model":"serving","day":2,"series":{"MWI_N":[0.5,0.5]}}`,
	`{"model":"serving","mwi":0.75,"series":{"MWI_N":[0.5]}}`,
	`{"model":"serving","mwi":1e999,"series":{"MWI_N":[0.5]}}`,
	`{"model":"serving","series":{"MWI_N":[0.5]}`,
	`{"model":"serving","series":{"MWI_N":[0.5]},}`,
	`{"model" "serving"}`,
	`{"model":"serving","series":{"MWI_N":[0.5]}}` + strings.Repeat(" ", 40),
	`null`, ` null `, `nul`, `[]`, `[1,2]`, `"serving"`, `12`, `true`, ``, `   `, "\xef\xbb\xbf{}",
	`{"model":"serving","series":{"MWI_N":[` + strings.Repeat("[", 10001) + `]}}`,
	`{"model":"serving","bogus":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `,"series":{"MWI_N":[0.5]}}`,
}

// batchTraps are batch-only bodies: drive counts and repeated keys.
var batchTraps = []string{
	`{"model":"serving","drives":[]}`,
	`{"model":"serving","drives":null}`,
	`{"model":"serving"}`,
	`{"model":"serving","drives":[null]}`,
	`{"model":"serving","drives":[5]}`,
	`{"model":"serving","drives":{}}`,
	`{"model":"serving","drive_id":1,"drives":[{"series":{"MWI_N":[0.5]}}]}`,
	`{"model":"serving","drives":[{"series":{"MWI_N":[0.5]}},{"drive_id":3}]}`,
	`{"model":"serving","drives":[{"drive_id":3},{"series":{"WARP":[0.5]}}]}`,
	`{"model":"serving","drives":[{"series":{"MWI_N":[0.5]}}],"drives":[{"day":0}]}`,
	`{"model":"serving","drives":[{"series":{"MWI_N":[0.5]}},{"series":{"UCE_R":[1]}}],"drives":[{"mwi":0.5}],"drives":[{},{}]}`,
	`{"model":"serving","drives":[{"series":{"MWI_N":[0.5]}},{"series":{"UCE_R":[1]}}],"drives":[],"drives":[{},{}]}`,
	`{"model":"serving","drives":[{"series":{"MWI_N":[0.5]}},{"series":{"UCE_R":[1]}}],"drives":null,"drives":[{"drive_id":1},{}]}`,
	`{"model":"serving","drives":[{"Series":{"MWI_N":[0.5]},"DRIVE_ID":null,"bogus":[]}]}`,
	`{"model":"serving","drives":[` + strings.Repeat(`{"series":{"MWI_N":[0.5]}},`, 64) + `{"series":{"MWI_N":[0.5]}}]}`,
	`{"model":"serving","drives":[` + strings.Repeat(`{"series":{"MWI_N":[0.5]}},`, 70) + `{}],"drives":[{"series":{"MWI_N":[0.5]}}]}`,
}

// batchOf wraps a score-body trap's drive fields in a one-drive batch.
func batchOf(trap string) string {
	i := strings.Index(trap, `"series"`)
	if !strings.HasPrefix(trap, `{"model":"serving",`) || i < 0 || !strings.HasSuffix(trap, "}") {
		return trap
	}
	return `{"model":"serving","drives":[{` + trap[len(`{"model":"serving",`):len(trap)-1] + `}]}`
}

// fuzzDecodeOptions are the daemon limits FuzzSeriesDecode runs under:
// small enough for the fuzzer to cross, large enough for the
// perfbench-shaped seeds (64 drives of 8 days).
var fuzzDecodeOptions = Options{MaxSeriesDays: 16, MaxBatchRequest: 64}

// FuzzSeriesDecode is the differential fuzzer of the single-pass
// series decoder: for every score or batch body, under the default
// body limit or a small one, it must accept or reject exactly as the
// reference (encoding/json plus the map-ordered validation) does, with
// a status that reference could give, and decode every value of every
// validated drive to the same bits. The one allowed difference is a
// null cell, which the decoder reads as NaN (a missing reading).
func FuzzSeriesDecode(f *testing.F) {
	s := newFuzzServer(f, fuzzDecodeOptions)
	// Perfbench-shaped seeds are kept to one and two drives: the
	// fuzzer mutates and minimizes whole inputs, and a 64-drive body
	// (TestSeriesDecodePerfbenchBody) would slow every execution.
	windows := inlineWindows(f, 2, 1)
	single, err := json.Marshal(ScoreRequest{Model: "serving", Series: windows[0]})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(single, false, uint16(0))
	f.Add(batchBody(f, windows), true, uint16(0))
	f.Add(single, false, uint16(len(single)/2))
	f.Add(single, false, uint16(len(single)))
	f.Add(single, false, uint16(len(single)-1))
	for _, trap := range decodeTraps {
		f.Add([]byte(trap), false, uint16(0))
		f.Add([]byte(batchOf(trap)), true, uint16(0))
	}
	for _, trap := range batchTraps {
		f.Add([]byte(trap), true, uint16(0))
	}
	// Bodies cut by the limit inside and right after a value.
	f.Add([]byte(`{"model":"serving","series":{"MWI_N":[0.5]}}   `), false, uint16(46))
	f.Add([]byte(`{"model":"serving","series":{"MWI_N":[0.5]}}   `), false, uint16(45))
	f.Add([]byte(`{"model":"serving","series":{"MWI_N":[0.5]}}   `), false, uint16(30))
	f.Add([]byte(`{"model":"serving","bogus":1,"series":{"MWI_N":[0.5]}}`), false, uint16(40))
	f.Add([]byte(`{"model":"serving","bogus":1}x`), false, uint16(29))
	f.Add([]byte(`{"model":"serving","bogus":1} 123`), false, uint16(32))
	f.Add([]byte(`{"model":"x","series":{"0":[0,0]}}   00`), false, uint16(39))
	f.Add([]byte(`{"model":"x","series":{"0":[0,0]}}   "0"`), false, uint16(40))
	f.Add([]byte(`{"model":"x","series":{"0":[0,0]}}   [0`), false, uint16(39))
	f.Add([]byte(`12  `), false, uint16(3))
	// Nesting past encoding/json's depth limit is a 400 even when the
	// body is then cut, which alone would be a 413.
	for _, deep := range []string{
		`{"model":"serving","bogus":` + strings.Repeat(`{"a":`, 10000),
		`{"model":"serving","series":{"MWI_N":` + strings.Repeat(`[`, 9999),
	} {
		f.Add([]byte(deep+"1"), false, uint16(len(deep)))
		f.Add([]byte(deep[:len(deep)-5]+"1"), false, uint16(len(deep)-5)) // at the limit

	}
	f.Add([]byte(`null    `), false, uint16(4))
	f.Add([]byte(`null    `), false, uint16(5))
	f.Add([]byte(`12345`), false, uint16(3))
	f.Add([]byte(`"serving"  `), false, uint16(9))
	f.Add([]byte(`{"model":"serving","series":{"MWI_N":[0.5]}}`+strings.Repeat(" ", 9)), false, uint16(50))

	f.Fuzz(func(t *testing.T, body []byte, batch bool, limit uint16) {
		checkDecode(t, s, body, batch, fuzzLimit(limit), limit%2 == 1)
	})
}

// TestSeriesDecodePerfbenchBody holds the decoder to the reference on
// the body perfbench's batch path sends, 64 drives of 8 days, whole
// and cut by the body limit.
func TestSeriesDecodePerfbenchBody(t *testing.T) {
	s, _, _ := newTestServer(t, fuzzDecodeOptions)
	body := batchBody(t, inlineWindows(t, 64, 1))
	checkDecode(t, s, body, true, DefaultMaxBodyBytes, false)
	for _, limit := range []int{len(body) / 3, len(body) - 1, len(body)} {
		checkDecode(t, s, body, true, int64(limit), limit%2 == 1)
	}
}

// TestSeriesRejectionDeterministic: a body with two faults, an unknown
// feature before a column over MaxSeriesDays, gets the first one's
// status and message every time. The map-ordered validation answered
// 400 or 413 depending on which key its range met first.
func TestSeriesRejectionDeterministic(t *testing.T) {
	s, _, _ := newTestServer(t, Options{MaxSeriesDays: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	bodies := map[string]struct {
		path, body string
		code       int
	}{
		"unknown first": {"/v1/score", `{"model":"serving","series":{"WARP_CORE":[1],"UCE_R":[1,2,3,4,5]}}`, http.StatusBadRequest},
		"long first":    {"/v1/score", `{"model":"serving","series":{"UCE_R":[1,2,3,4,5],"WARP_CORE":[1]}}`, http.StatusRequestEntityTooLarge},
		"batch":         {"/v1/score/batch", `{"model":"serving","drives":[{"series":{"MWI_N":[1,2],"WARP_CORE":[1],"UCE_R":[1,2,3,4,5]}}]}`, http.StatusBadRequest},
	}
	for name, tc := range bodies {
		t.Run(name, func(t *testing.T) {
			var first string
			for i := 0; i < 50; i++ {
				resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				msg, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != tc.code {
					t.Fatalf("send %d: HTTP %d %s, want %d", i, resp.StatusCode, msg, tc.code)
				}
				if i == 0 {
					first = string(msg)
				} else if string(msg) != first {
					t.Fatalf("send %d: %s, first send %s", i, msg, first)
				}
			}
		})
	}
}

// seriesJSON encodes inline series with NaN written as null.
func seriesJSON(series map[string][]float64) string {
	cells := make(map[string][]*float64, len(series))
	for name, col := range series {
		cells[name] = make([]*float64, len(col))
		for j := range col {
			if !math.IsNaN(col[j]) {
				cells[name][j] = &col[j]
			}
		}
	}
	data, err := json.Marshal(cells)
	if err != nil {
		panic(err) // finite floats and nil pointers always encode
	}
	return string(data)
}

// TestParseFloatMatchesStrconv: the decoder's shortcut for plain
// decimals gives strconv.ParseFloat's bits on random JSON numbers of
// 1 to 18 digits with the point anywhere, signs and exponents.
func TestParseFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		var num []byte
		if rng.Intn(2) == 0 {
			num = append(num, '-')
		}
		n := 1 + rng.Intn(18)
		point := rng.Intn(n + 1)
		for j := 0; j < n; j++ {
			if j == point && j > 0 {
				num = append(num, '.')
			}
			d := byte('0' + rng.Intn(10))
			if j == 0 && point != 1 && n > 1 {
				d = byte('1' + rng.Intn(9)) // JSON: no leading zero before more digits
			}
			num = append(num, d)
		}
		if rng.Intn(10) == 0 {
			num = append(num, fmt.Sprintf("e%d", rng.Intn(40)-20)...)
		}
		want, werr := strconv.ParseFloat(string(num), 64)
		got, err := parseFloat(num)
		if (err == nil) != (werr == nil) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseFloat(%s) = %v (%v), strconv %v (%v)", num, got, err, want, werr)
		}
	}
}
