package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// daemonState captures everything a malformed request must not
// change: store horizon and counters, registry version, swap count.
type daemonState struct {
	horizon  int
	ingested int64
	fetches  int64
	appends  int64
	version  int
	swaps    int64
	ingests  int64
}

// validDriveID returns some drive that exists in the store.
func validDriveID(t *testing.T, s *Server) int {
	t.Helper()
	for id := range s.opts.Store.Snapshot().RefIndex(testModel) {
		return id
	}
	t.Fatal("store has no drives")
	return 0
}

func captureState(t *testing.T, s *Server) daemonState {
	t.Helper()
	c := s.opts.Store.Counters()
	v, err := s.opts.Registry.LatestVersion("serving")
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	return daemonState{
		horizon:  s.opts.Store.Horizon(),
		ingested: c.DaysIngested, fetches: c.SeriesFetches, appends: c.Appends,
		version: v, swaps: st.Swaps, ingests: st.Ingests,
	}
}

// TestMalformedRequests: every malformed input maps to a structured
// 4xx — a JSON body with a non-empty "error" — and leaves daemon
// state (store horizon/counters, registry, swap count) untouched.
func TestMalformedRequests(t *testing.T) {
	s, _, _ := newTestServer(t, Options{MaxBatchRequest: 8, MaxSeriesDays: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	longSeries := "[" + strings.Repeat("0.5,", 64) + "0.5]" // 65 days > MaxSeriesDays
	bigBatch := `{"model":"serving","drives":[` +
		strings.Repeat(`{"series":{"MWI_N":[0.5]}},`, 8) +
		`{"series":{"MWI_N":[0.5]}}]}` // 9 drives > MaxBatchRequest

	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"truncated json", "/v1/score", `{"model":`, 400},
		{"not json at all", "/v1/score", `<xml/>`, 400},
		{"unknown field", "/v1/score", `{"model":"serving","bogus":1}`, 400},
		{"trailing garbage", "/v1/score", `{"model":"serving","series":{"MWI_N":[0.5]}} {"again":1}`, 400},
		{"unknown model", "/v1/score", `{"model":"nope","series":{"MWI_N":[0.5]}}`, 404},
		{"neither series nor drive", "/v1/score", `{"model":"serving"}`, 400},
		{"both series and drive", "/v1/score", `{"model":"serving","drive_id":1,"series":{"MWI_N":[0.5]}}`, 400},
		{"empty series", "/v1/score", `{"model":"serving","series":{}}`, 400},
		{"unknown feature", "/v1/score", `{"model":"serving","series":{"WARP_CORE":[0.5]}}`, 400},
		{"ragged columns", "/v1/score", `{"model":"serving","series":{"MWI_N":[0.5,0.5],"UCE_R":[0.5]}}`, 400},
		{"empty column", "/v1/score", `{"model":"serving","series":{"MWI_N":[]}}`, 400},
		{"NaN payload", "/v1/score", `{"model":"serving","series":{"MWI_N":[NaN]}}`, 400},
		{"Inf payload", "/v1/score", `{"model":"serving","series":{"MWI_N":[1e999]}}`, 400},
		{"negative Inf payload", "/v1/score", `{"model":"serving","series":{"MWI_N":[-Infinity]}}`, 400},
		{"series too long", "/v1/score", `{"model":"serving","series":{"MWI_N":` + longSeries + `}}`, 413},
		{"day outside inline span", "/v1/score", `{"model":"serving","day":9,"series":{"MWI_N":[0.5]}}`, 400},
		{"unknown drive", "/v1/score", `{"model":"serving","drive_id":99999999}`, 404},
		{"negative day for drive", "/v1/score", fmt.Sprintf(`{"model":"serving","drive_id":%d,"day":-3}`, validDriveID(t, s)), 400},
		{"wrong type for series", "/v1/score", `{"model":"serving","series":42}`, 400},
		{"string in column", "/v1/score", `{"model":"serving","series":{"MWI_N":["a"]}}`, 400},
		{"batch unknown model", "/v1/score/batch", `{"model":"nope","drives":[{"series":{"MWI_N":[0.5]}}]}`, 404},
		{"batch empty", "/v1/score/batch", `{"model":"serving","drives":[]}`, 400},
		{"batch oversized", "/v1/score/batch", bigBatch, 413},
		{"batch bad drive", "/v1/score/batch", `{"model":"serving","drives":[{"series":{"MWI_N":[0.5,0.5],"UCE_R":[0.5]}}]}`, 400},
		{"fleet unknown model", "/v1/score/fleet", `{"model":"nope","day":1}`, 404},
		{"fleet day past horizon", "/v1/score/fleet", `{"model":"serving","day":100000}`, 400},
		{"fleet negative day", "/v1/score/fleet", `{"model":"serving","day":-1}`, 400},
		{"ingest negative day", "/v1/ingest", `{"day":-1}`, 400},
		{"ingest past upstream", "/v1/ingest", `{"day":100000}`, 400},
		{"ingest bad json", "/v1/ingest", `{"day":`, 400},
	}

	before := captureState(t, s)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("HTTP %d, want %d", resp.StatusCode, tc.want)
			}
			var parsed struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&parsed); err != nil {
				t.Fatalf("error body is not structured JSON: %v", err)
			}
			if parsed.Error == "" {
				t.Error("error body has no error message")
			}
		})
	}
	if after := captureState(t, s); after != before {
		t.Fatalf("malformed requests changed daemon state:\nbefore %+v\nafter  %+v", before, after)
	}

	// The daemon still serves valid traffic afterward.
	body, _ := json.Marshal(ScoreRequest{Model: "serving", Series: map[string][]float64{
		"MWI_N": {0.5}, "UCE_R": {0.1},
	}})
	resp, err := ts.Client().Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// 200 if the snapshot's features happen to be covered, else a 4xx —
	// either way the daemon must not have wedged into 5xx territory.
	if resp.StatusCode >= 500 {
		t.Fatalf("daemon unhealthy after malformed burst: HTTP %d", resp.StatusCode)
	}
}

// TestOversizedBody: a body over MaxBodyBytes is rejected with 413
// before any of it is processed.
func TestOversizedBody(t *testing.T) {
	s, _, _ := newTestServer(t, Options{MaxBodyBytes: 1024})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	huge := fmt.Sprintf(`{"model":"serving","series":{"MWI_N":[%s0.5]}}`, strings.Repeat("0.5,", 2000))
	resp, err := ts.Client().Post(ts.URL+"/v1/score", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("HTTP %d, want 413", resp.StatusCode)
	}
}

// FuzzScoreRequest fuzzes the score and batch decode/validate paths:
// no input may panic the handler or produce a 5xx.
func FuzzScoreRequest(f *testing.F) {
	s := newFuzzServer(f, Options{})
	h := s.Handler()

	f.Add([]byte(`{"model":"serving","series":{"MWI_N":[0.5],"UCE_R":[0.1]}}`), false)
	f.Add([]byte(`{"model":"serving","drive_id":3,"day":200}`), false)
	f.Add([]byte(`{"model":`), false)
	f.Add([]byte(`{"model":"serving","series":{"MWI_N":[1e999]}}`), false)
	f.Add([]byte(`{"model":"serving","mwi":0.9,"series":{"MWI_N":[0.1,0.2,0.3]}}`), false)
	f.Add([]byte(`{"model":"serving","series":{"MWI_N":[null,0.2]}}`), false)
	f.Add([]byte(`[]`), false)
	f.Add([]byte(``), false)
	f.Add([]byte(`{"model":"serving","drives":[{"series":{"MWI_N":[0.5],"UCE_R":[0.1]}},{"drive_id":3}]}`), true)
	f.Add([]byte(`{"model":"serving","drives":[{"mwi":0.9,"series":{"MWI_N":[0.1,null]}}]}`), true)
	f.Add([]byte(`{"model":"serving","drives":[]}`), true)
	f.Add([]byte(`{"model":"serving","drives":[{"series":{"MWI_N":[0.5]}}],"drives":[{"day":0}]}`), true)

	f.Fuzz(func(t *testing.T, body []byte, batch bool) {
		path := "/v1/score"
		if batch {
			path = "/v1/score/batch"
		}
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		// 501 is the documented answer for store-backed requests on a
		// store-less daemon; anything else in 5xx is a handler bug.
		if rec.Code >= 500 && rec.Code != http.StatusNotImplemented {
			t.Fatalf("%s input %q produced HTTP %d: %s", path, body, rec.Code, rec.Body.String())
		}
	})
}

// newFuzzServer mirrors newTestServer for *testing.F. No store is
// attached: store-backed requests answer 501, which keeps the fuzz
// target on the decode/validate path it is meant to cover.
func newFuzzServer(f *testing.F, opts Options) *Server {
	f.Helper()
	fixtureOnce.Do(buildFixture)
	if fixture.err != nil {
		f.Fatalf("fixture: %v", fixture.err)
	}
	reg := &core.Registry{Dir: f.TempDir()}
	if _, err := engine.SaveSnapshot(reg, "serving", fixture.snapA); err != nil {
		f.Fatal(err)
	}
	opts.Registry = reg
	opts.Artifacts = []string{"serving"}
	s, err := New(opts)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	return s
}
