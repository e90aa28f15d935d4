//go:build !race

package serve

import (
	"bytes"
	"io"
	"net/http/httptest"
	"testing"
)

// Allocation counts are pinned only without the race detector, which
// makes sync.Pool drop a quarter of its Puts on purpose.

// TestSingleScoreAllocs pins the single-drive kernel call: once the
// row is assembled in pooled scratch, scoring it through the scratch's
// one-row column views allocates nothing.
func TestSingleScoreAllocs(t *testing.T) {
	s, _, st := newTestServer(t, Options{})
	_, snapA, _ := testFleet(t)
	sv := s.arts["serving"].cur.Load()
	snap := st.Snapshot()
	day := snapA.TrainedThrough + 3
	var tbl seriesTable
	g := -1
	for _, ref := range snap.RefIndex(testModel) {
		cols, lastDay, err := snap.Series(ref)
		if err != nil {
			t.Fatal(err)
		}
		if lastDay < day {
			continue
		}
		tbl = seriesTable{}
		for ft, col := range cols {
			tbl[ft.Index()] = col
		}
		if g = sv.scorer.PickGroup(routeMWI(&tbl, day, nil)); g >= 0 {
			break
		}
	}
	if g < 0 {
		t.Fatal("no drive observed on the scored day routes to a wear group")
	}
	rt := sv.groups[g]
	fs := getScratch(rt.width, len(rt.feats))
	defer putScratch(fs)
	if err := sv.driveRow(rt, &tbl, day, fs); err != nil {
		t.Fatal(err)
	}
	score := func() {
		if err := sv.scorer.ScoreBatch(g, fs.cols, fs.prob[:]); err != nil {
			t.Fatal(err)
		}
	}
	score()
	if allocs := testing.AllocsPerRun(1000, score); allocs != 0 {
		t.Errorf("one-row ScoreBatch allocates %.3f objects/op, want 0", allocs)
	}
}

// batchDecodeAllocCeiling caps one warm decode of a perfbench-shaped
// 64-drive batch body. The decoder reads into pooled buffers, so a
// decode measured 2 objects (the body-limit reader and the model name)
// however many numbers the body holds; the ceiling is that plus a
// margin of 6.
const batchDecodeAllocCeiling = 8

// TestBatchDecodeAllocs pins the allocations of decoding one 64-drive
// inline batch body (38 features x 8 days) with a warm body pool.
func TestBatchDecodeAllocs(t *testing.T) {
	body := batchBody(t, inlineWindows(t, 64, 1))
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/score/batch", rd)
	w := httptest.NewRecorder()
	decode := func() {
		rd.Reset(body)
		req.Body = io.NopCloser(rd)
		b, err := decodeSeries(w, req, true, DefaultMaxBodyBytes, DefaultMaxBatchRequest)
		if err != nil {
			t.Fatal(err)
		}
		if b.n != 64 {
			t.Fatalf("decoded %d drives, want 64", b.n)
		}
		b.release()
	}
	decode()
	allocs := testing.AllocsPerRun(100, decode)
	ref := testing.AllocsPerRun(5, func() {
		var req BatchRequest
		if refDecodeBody(body, DefaultMaxBodyBytes, &req) != 0 {
			t.Fatal("the reference rejects the body")
		}
	})
	t.Logf("one 64-drive batch decode: %.0f allocations (encoding/json: %.0f)", allocs, ref)
	if allocs > batchDecodeAllocCeiling {
		t.Errorf("one 64-drive batch decode allocates %.1f objects, ceiling %d", allocs, batchDecodeAllocCeiling)
	}
}

// batchHandlerAllocCeiling caps one warm 64-drive inline batch through
// the handler, request and recorder set-up included. The batch's rows,
// buckets, group columns, probabilities and results live in pooled
// scratch, so what is left is the HTTP plumbing and the response
// encoder: a request measured 27 objects; the ceiling adds a margin of
// 8. (Allocating that scratch per request made about 400.)
const batchHandlerAllocCeiling = 35

// TestBatchHandlerAllocs pins the allocations of one warm 64-drive
// inline POST /v1/score/batch through Server.Handler.
func TestBatchHandlerAllocs(t *testing.T) {
	s, _, _ := newTestServer(t, Options{})
	h := s.Handler()
	body := batchBody(t, inlineWindows(t, 64, 1))
	rd := bytes.NewReader(body)
	post := func() {
		rd.Reset(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/score/batch", rd))
		if rec.Code != 200 {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
		}
	}
	post()
	allocs := testing.AllocsPerRun(50, post)
	t.Logf("one 64-drive inline batch request: %.1f allocations", allocs)
	if allocs > batchHandlerAllocCeiling {
		t.Errorf("one 64-drive inline batch request allocates %.1f objects, ceiling %d", allocs, batchHandlerAllocCeiling)
	}
}
