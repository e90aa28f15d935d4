package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestGateAdmission covers the two-stage admission gate directly:
// capacity admits, the bounded queue waits, a full queue sheds, and
// an expired deadline abandons the wait.
func TestGateAdmission(t *testing.T) {
	g := newGate(1, 1)
	ctx := context.Background()

	if err := g.acquire(ctx); err != nil {
		t.Fatalf("empty gate refused: %v", err)
	}

	// Park waiters until every queue slot is taken; a further acquire
	// must shed without blocking.
	parked, cancelParked := context.WithCancel(ctx)
	defer cancelParked()
	got := make(chan error, cap(g.waiters))
	for i := 0; i < cap(g.waiters); i++ {
		go func() { got <- g.acquire(parked) }()
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(g.waiters) < cap(g.waiters) {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never parked: %d of %d", len(g.waiters), cap(g.waiters))
		}
		time.Sleep(time.Millisecond)
	}
	if err := g.acquire(ctx); err != errShed {
		t.Fatalf("full queue: %v; want errShed", err)
	}

	// Releasing the slot admits exactly one parked waiter.
	g.release()
	if err := <-got; err != nil {
		t.Fatalf("parked waiter should admit after release: %v", err)
	}
	// The other parked waiter leaves promptly when its context dies.
	cancelParked()
	if err := <-got; err != context.Canceled {
		t.Fatalf("cancelled waiter: %v; want Canceled", err)
	}
	g.release()

	// Expired deadline while queued: prompt ctx error, not a hang.
	if err := g.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	c, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if err := g.acquire(c); err != context.DeadlineExceeded {
		t.Fatalf("queued past deadline: %v; want DeadlineExceeded", err)
	}
	g.release()
}

// TestShedResponseShape: a shed is a structured 429 with Retry-After
// and code "shed" — clients must be able to tell backoff advice from
// failure.
func TestShedResponseShape(t *testing.T) {
	s, _, _ := newTestServer(t, Options{MaxInflightSingle: 1})
	// Fill the single path: take the 1 inflight slot, then park
	// enough waiters to exhaust all 5 queue slots (1+4).
	g := s.gates[pathSingle]
	if err := g.acquire(context.Background()); err != nil {
		t.Fatalf("prefill inflight: %v", err)
	}
	defer g.release()
	parked, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < cap(g.waiters); i++ {
		go func() { _ = g.acquire(parked) }()
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(g.waiters) < cap(g.waiters) {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never filled: %d of %d", len(g.waiters), cap(g.waiters))
		}
		time.Sleep(time.Millisecond)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/score", "application/json",
		strings.NewReader(`{"model":"serving"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full gate: HTTP %d; want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var e struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != "shed" {
		t.Errorf("shed body code %q (err %v); want \"shed\"", e.Code, err)
	}
	if s.Stats().Shed != 1 {
		t.Errorf("shed counter %d; want 1", s.Stats().Shed)
	}
}

// TestBadDeadlineHeader: a malformed X-Deadline-Ms is the client's
// error, rejected 400 before admission.
func TestBadDeadlineHeader(t *testing.T) {
	s, _, _ := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, bad := range []string{"abc", "-5", "0", "1.5"} {
		req, err := http.NewRequest("POST", ts.URL+"/v1/score", strings.NewReader(`{"model":"serving"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Deadline-Ms", bad)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("X-Deadline-Ms %q: HTTP %d; want 400", bad, resp.StatusCode)
		}
	}
}

// TestPerPathBodyLimits: every POST endpoint bounds its body with a
// per-path limit and rejects oversize with a structured 413. The
// fixed-shape endpoints (fleet, ingest) get the small limit; the
// series-carrying endpoints get the large one.
func TestPerPathBodyLimits(t *testing.T) {
	s, _, _ := newTestServer(t, Options{
		MaxBodyBytes:      2048,
		MaxSmallBodyBytes: 256,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// pad returns a syntactically valid JSON body inflated past the
	// limit with leading whitespace, which the decoder reads through
	// MaxBytesReader before the object even starts.
	pad := func(body string, size int) string {
		if n := size - len(body); n > 0 {
			return strings.Repeat(" ", n) + body
		}
		return body
	}
	// padTail inflates past the limit with trailing whitespace after a
	// complete JSON value — the over-limit read happens in the
	// trailing-data check, not the decode, and must still 413.
	padTail := func(body string, size int) string {
		if n := size - len(body); n > 0 {
			return body + strings.Repeat(" ", n)
		}
		return body
	}
	cases := []struct {
		name string
		url  string
		body string
		code int
	}{
		{"score over limit", "/v1/score", pad(`{"model":"serving"}`, 4096), http.StatusRequestEntityTooLarge},
		{"ingest trailing pad over limit", "/v1/ingest", padTail(`{"day":1}`, 512), http.StatusRequestEntityTooLarge},
		{"score trailing pad over limit", "/v1/score", padTail(`{"model":"serving"}`, 4096), http.StatusRequestEntityTooLarge},
		{"batch over limit", "/v1/score/batch", pad(`{"model":"serving"}`, 4096), http.StatusRequestEntityTooLarge},
		{"fleet over small limit", "/v1/score/fleet", pad(`{"model":"serving","day":1}`, 512), http.StatusRequestEntityTooLarge},
		{"ingest over small limit", "/v1/ingest", pad(`{"day":1}`, 512), http.StatusRequestEntityTooLarge},
		{"fleet under small limit ok", "/v1/score/fleet", `{"model":"serving","day":1}`, http.StatusOK},
		{"score under limit not 413", "/v1/score", pad(`{"model":"serving"}`, 1024), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: HTTP %d; want %d: %s", tc.name, resp.StatusCode, tc.code, buf.String())
		}
		if tc.code == http.StatusRequestEntityTooLarge && !strings.Contains(buf.String(), "exceeds") {
			t.Errorf("%s: 413 body not structured: %s", tc.name, buf.String())
		}
	}
}
