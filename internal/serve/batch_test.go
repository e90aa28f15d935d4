package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestBatchPooledScratchResponses: the batch handler reuses pooled
// scratch across requests, so a sequence of batches of different sizes
// and wear-group mixes, store-backed drives and a failing batch in
// between, must each get the bytes of a response built from the
// single-drive endpoint's answers for the same drives.
func TestBatchPooledScratchResponses(t *testing.T) {
	s, _, st := newTestServer(t, Options{})
	h := s.Handler()
	post := func(path string, body []byte) (int, []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	windows := inlineWindows(t, 64, 5)
	var stored []int
	for _, ref := range st.Snapshot().DrivesOf(testModel)[:5] {
		stored = append(stored, ref.ID)
	}
	// want builds the expected batch body from single-drive replies.
	want := func(req BatchRequest) []byte {
		t.Helper()
		var singles []ScoreResponse
		for _, d := range req.Drives {
			code, body := post("/v1/score", mustJSON(ScoreRequest{Model: req.Model, DriveID: d.DriveID, Day: d.Day, Series: d.Series}))
			if code != http.StatusOK {
				t.Fatalf("single score: HTTP %d: %s", code, body)
			}
			var r ScoreResponse
			if err := json.Unmarshal(body, &r); err != nil {
				t.Fatal(err)
			}
			singles = append(singles, r)
		}
		var buf bytes.Buffer
		resp := BatchResponse{Model: singles[0].Model, Version: singles[0].Version, ConfigHash: singles[0].ConfigHash, Results: singles}
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	inline := func(ws []map[string][]float64) BatchRequest {
		req := BatchRequest{Model: "serving"}
		for _, w := range ws {
			req.Drives = append(req.Drives, BatchDrive{Series: w})
		}
		return req
	}
	mixed := inline(windows[10:13])
	for _, id := range stored {
		mixed.Drives = append(mixed.Drives, BatchDrive{DriveID: &id})
	}
	broken := inline(windows[:20])
	broken.Drives[15].Series = map[string][]float64{"MWI_N": {1, 2}}

	batches := []BatchRequest{inline(windows), inline(windows[:3]), mixed, broken, inline(windows[40:41]), inline(windows)}
	for i, req := range batches {
		code, body := post("/v1/score/batch", mustJSON(req))
		if i == 3 {
			if code == http.StatusOK {
				t.Fatalf("batch %d with a drive lacking features: HTTP 200", i)
			}
			continue
		}
		if code != http.StatusOK {
			t.Fatalf("batch %d: HTTP %d: %s", i, code, body)
		}
		if exp := want(req); !bytes.Equal(body, exp) {
			t.Fatalf("batch %d of %d drives:\n got %s\nwant %s", i, len(req.Drives), body, exp)
		}
	}
}
