package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/store"
)

// chaos_test.go is the serve-layer chaos suite: overload, store
// faults, breaker brownout, and registry-watch tolerance, each
// asserting that the daemon degrades with 429/503 only, keeps
// accepted responses bit-identical to offline scoring, and returns
// to its goroutine baseline once the fault clears. Run it with -race.

// goroutineBaseline snapshots the goroutine count and returns a check
// that fails the test if the count has not returned to (near) the
// baseline within a few seconds — the stuck-goroutine detector.
func goroutineBaseline(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		var n int
		for {
			n = runtime.NumGoroutine()
			// Small slack: the HTTP test server's idle conns and the
			// runtime's own background goroutines jitter by a few.
			if n <= base+5 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines stuck: %d now vs %d baseline\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// disarmAll disarms every op site this suite arms, always safe to
// call.
func disarmAll() {
	faults.DisarmOp(SiteStoreSeries)
	faults.DisarmOp(SiteRegistryLoad)
	faults.DisarmOp(SiteSlowWrite)
}

// readyz fetches /readyz, returning status code and decoded body.
func readyz(t *testing.T, client *http.Client, base string) (int, ReadyResponse) {
	t.Helper()
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, rr
}

// TestChaosOverloadSheds drives an open-loop load far beyond a
// deliberately tiny admission capacity with a slow-consumer delay
// injected on every accepted request, and asserts the daemon's only
// failure modes are structured 429/503: nonzero shed, nonzero
// goodput, zero transport-or-5xx-other errors, and a clean goroutine
// baseline after the storm.
func TestChaosOverloadSheds(t *testing.T) {
	checkGoroutines := goroutineBaseline(t)
	s, _, _ := newTestServer(t, Options{
		MaxInflightSingle: 2,
		DefaultDeadline:   500 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Every admitted request holds its slot ~2ms: capacity ~1000 QPS
	// with 2 slots, so 4000 offered QPS is far past the knee.
	faults.ArmOp(SiteSlowWrite, faults.OpDelay(2*time.Millisecond))
	t.Cleanup(disarmAll)

	body, err := json.Marshal(ScoreRequest{Model: "serving", Series: inlineSeries(t, s, 9)})
	if err != nil {
		t.Fatal(err)
	}
	rep := openLoop(ts.Client(), ts.URL+"/v1/score", body, 4000, 600*time.Millisecond, 128)
	if rep.Errors != 0 {
		t.Fatalf("overload produced %d hard errors; want only 429/503: %+v", rep.Errors, rep)
	}
	if rep.Shed == 0 {
		t.Errorf("offered %.0f QPS against 2 slots shed nothing: %+v", rep.OfferedQPS, rep)
	}
	if rep.Accepted == 0 {
		t.Errorf("overload starved goodput entirely: %+v", rep)
	}
	st := s.Stats()
	if st.Shed == 0 || st.Accepted == 0 {
		t.Errorf("server counters missed the storm: accepted %d shed %d", st.Accepted, st.Shed)
	}

	disarmAll()
	// The 128 load workers leave keep-alive connections (and their
	// server-side read goroutines) idling; reap them before the
	// stuck-goroutine check.
	ts.Client().CloseIdleConnections()
	checkGoroutines()
}

// TestChaosStoreFaultParity injects a mixed flaky-and-hung store on
// the serve fetch path (roughly 10% hangs, 10% transient errors)
// under store-backed traffic and asserts the daemon's dichotomy:
// every accepted response is bit-identical to the offline engine
// pass, every rejection is a structured 503 of a known kind, and
// nothing else.
func TestChaosStoreFaultParity(t *testing.T) {
	checkGoroutines := goroutineBaseline(t)
	s, _, st := newTestServer(t, Options{
		DefaultDeadline: 300 * time.Millisecond,
		// The breaker is exercised by TestChaosBreakerBrownout; here it
		// must not trip so the fault mix keeps flowing.
		BreakerThreshold: 1 << 30,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, snapA, _ := testFleet(t)
	scorer, err := engine.NewScorer(snapA, 0)
	if err != nil {
		t.Fatal(err)
	}
	day := snapA.TrainedThrough + 3
	offline, err := scorer.Score(st.Snapshot(), day, day)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]float64, len(offline))
	for _, o := range offline {
		want[o.Pred.DriveID] = o.MaxProb
	}

	// Deterministic 10/10 mix: every 10th fetch hangs until the
	// request deadline, every 7th fails transiently, the rest pass.
	faults.ArmOp(SiteStoreSeries, func(ctx context.Context, hit int) error {
		switch {
		case hit%10 == 0:
			<-ctx.Done()
			return ctx.Err()
		case hit%7 == 0:
			return fmt.Errorf("%w: injected at hit %d", faults.ErrTransient, hit)
		}
		return nil
	})
	t.Cleanup(disarmAll)

	var accepted, rejected int
	for _, o := range offline {
		if accepted >= 40 && rejected >= 5 {
			break
		}
		id := o.Pred.DriveID
		var got ScoreResponse
		code, body := postJSON(t, ts.Client(), ts.URL+"/v1/score",
			ScoreRequest{Model: "serving", DriveID: &id, Day: &day}, &got)
		switch code {
		case http.StatusOK:
			accepted++
			if got.Prob != want[id] {
				t.Errorf("drive %d accepted under faults: prob %v != offline %v", id, got.Prob, want[id])
			}
		case http.StatusServiceUnavailable:
			rejected++
			if !strings.Contains(body, `"code":"deadline_exceeded"`) && !strings.Contains(body, `"code":"store_unavailable"`) {
				t.Errorf("drive %d: 503 of unknown kind: %s", id, body)
			}
		default:
			t.Errorf("drive %d: HTTP %d under store faults; want 200 or 503: %s", id, code, body)
		}
	}
	if accepted == 0 {
		t.Fatal("store faults rejected every request; the mix should mostly pass")
	}
	if rejected == 0 {
		t.Fatal("store faults rejected nothing; injection did not engage")
	}

	disarmAll()
	checkGoroutines()
}

// TestChaosBreakerBrownout walks the breaker's whole state machine
// under traffic: consecutive store failures trip it open, open
// fast-fails store-backed requests without touching the store while
// inline requests keep scoring flagged degraded, /readyz goes
// unready (unless -degraded-ok), and a clean half-open probe after
// the cooldown closes it again.
func TestChaosBreakerBrownout(t *testing.T) {
	s, _, st := newTestServer(t, Options{
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
		BreakerSeed:      1,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, snapA, _ := testFleet(t)
	day := snapA.TrainedThrough + 3
	driveID := anyDriveID(t, st, day)

	faults.ArmOp(SiteStoreSeries, faults.OpFailEveryN(1)) // every fetch fails
	t.Cleanup(disarmAll)

	// Three consecutive failures trip the breaker.
	for i := 0; i < 3; i++ {
		code, body := postJSON(t, ts.Client(), ts.URL+"/v1/score",
			ScoreRequest{Model: "serving", DriveID: &driveID, Day: &day}, nil)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("faulted fetch %d: HTTP %d: %s", i, code, body)
		}
	}
	if st := s.Stats(); st.BreakerState != "open" || st.BreakerTrips != 1 {
		t.Fatalf("after 3 consecutive failures: breaker %q, trips %d; want open, 1", st.BreakerState, st.BreakerTrips)
	}

	// Open: store-backed requests fast-fail without reaching the store.
	hitsBefore := faults.OpHits(SiteStoreSeries)
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/score",
		ScoreRequest{Model: "serving", DriveID: &driveID, Day: &day}, nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "store_unavailable") {
		t.Fatalf("open breaker: HTTP %d: %s", code, body)
	}
	if got := faults.OpHits(SiteStoreSeries); got != hitsBefore {
		t.Errorf("open breaker still reached the store: %d hits vs %d", got, hitsBefore)
	}

	// Open: fleet and ingest shed with 503 store_unavailable.
	code, body = postJSON(t, ts.Client(), ts.URL+"/v1/score/fleet",
		FleetRequest{Model: "serving", Day: day}, nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "store_unavailable") {
		t.Errorf("open breaker fleet: HTTP %d: %s", code, body)
	}
	code, body = postJSON(t, ts.Client(), ts.URL+"/v1/ingest",
		IngestRequest{Day: day}, nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "store_unavailable") {
		t.Errorf("open breaker ingest: HTTP %d: %s", code, body)
	}

	// Open: inline-series scoring is the brownout — still served,
	// flagged degraded.
	inline := inlineSeries(t, s, day)
	var deg ScoreResponse
	code, body = postJSON(t, ts.Client(), ts.URL+"/v1/score",
		ScoreRequest{Model: "serving", Series: inline}, &deg)
	if code != http.StatusOK {
		t.Fatalf("inline during brownout: HTTP %d: %s", code, body)
	}
	if !deg.Degraded {
		t.Error("inline response during brownout not flagged degraded")
	}

	// Readiness reflects the brownout; liveness stays dumb.
	if code, rr := readyz(t, ts.Client(), ts.URL); code != http.StatusServiceUnavailable || rr.Ready || !rr.Degraded || rr.Breaker != "open" {
		t.Errorf("/readyz during brownout: HTTP %d, %+v", code, rr)
	}
	if resp, err := ts.Client().Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz must stay 200 during brownout")
	} else {
		resp.Body.Close()
	}

	// Recovery: heal the store, wait out the cooldown (50ms + ≤20%
	// jitter), and the half-open probe closes the breaker.
	disarmAll()
	time.Sleep(70 * time.Millisecond)
	var ok ScoreResponse
	code, body = postJSON(t, ts.Client(), ts.URL+"/v1/score",
		ScoreRequest{Model: "serving", DriveID: &driveID, Day: &day}, &ok)
	if code != http.StatusOK {
		t.Fatalf("half-open probe: HTTP %d: %s", code, body)
	}
	if ok.Degraded {
		t.Error("post-recovery response still flagged degraded")
	}
	if st := s.Stats(); st.BreakerState != "closed" {
		t.Errorf("after clean probe: breaker %q; want closed", st.BreakerState)
	}
	if code, rr := readyz(t, ts.Client(), ts.URL); code != http.StatusOK || !rr.Ready {
		t.Errorf("/readyz after recovery: HTTP %d, %+v", code, rr)
	}
}

// TestChaosDegradedOK: with Options.DegradedOK a browned-out daemon
// still reports ready — degraded capacity beats no capacity.
func TestChaosDegradedOK(t *testing.T) {
	s, _, st := newTestServer(t, Options{
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour, // stay open for the whole test
		DegradedOK:       true,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	faults.ArmOp(SiteStoreSeries, faults.OpFailEveryN(1))
	t.Cleanup(disarmAll)

	_, snapA, _ := testFleet(t)
	day := snapA.TrainedThrough + 3
	driveID := anyDriveID(t, st, day)
	if code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score",
		ScoreRequest{Model: "serving", DriveID: &driveID, Day: &day}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("tripping fetch: HTTP %d", code)
	}
	code, rr := readyz(t, ts.Client(), ts.URL)
	if code != http.StatusOK || !rr.Ready || !rr.Degraded {
		t.Errorf("degraded-ok /readyz: HTTP %d, %+v; want 200, ready, degraded", code, rr)
	}
}

// TestChaosRegistryWatchTolerance: a registry that fails to load a
// new version must not take the daemon down — the last good snapshot
// keeps serving, /v1/models and /readyz surface the staleness, and
// the next clean reload swaps and clears it.
func TestChaosRegistryWatchTolerance(t *testing.T) {
	s, reg, _ := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, snapA, snapB := testFleet(t)
	if _, err := engine.SaveSnapshot(reg, "serving", snapB); err != nil {
		t.Fatal(err)
	}

	faults.ArmOp(SiteRegistryLoad, faults.OpFailEveryN(1))
	t.Cleanup(disarmAll)

	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/reload", struct{}{}, nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "registry_unavailable") {
		t.Fatalf("faulted reload: HTTP %d: %s", code, body)
	}

	// Still serving the last good snapshot, marked stale.
	resp, err := ts.Client().Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models []ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(models) != 1 || models[0].Version != 1 || !models[0].Stale {
		t.Fatalf("models after failed reload: %+v; want v1 stale", models)
	}
	if code, rr := readyz(t, ts.Client(), ts.URL); code != http.StatusServiceUnavailable || !rr.RegistryStale || rr.LastReloadError == "" {
		t.Errorf("/readyz after failed reload: HTTP %d, %+v", code, rr)
	}

	// Scoring still works on the stale snapshot, flagged degraded.
	day := snapA.TrainedThrough + 3
	inline := inlineSeries(t, s, day)
	var got ScoreResponse
	code, body = postJSON(t, ts.Client(), ts.URL+"/v1/score",
		ScoreRequest{Model: "serving", Series: inline}, &got)
	if code != http.StatusOK {
		t.Fatalf("score during staleness: HTTP %d: %s", code, body)
	}
	if got.Version != 1 || got.ConfigHash != snapA.ConfigHash {
		t.Errorf("stale serving identity (v%d, %s); want last good (v1, %s)", got.Version, got.ConfigHash, snapA.ConfigHash)
	}
	if !got.Degraded {
		t.Error("response during registry staleness not flagged degraded")
	}

	// Registry heals: the next reload swaps to v2 and clears staleness.
	disarmAll()
	if code, body := postJSON(t, ts.Client(), ts.URL+"/v1/reload", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("healed reload: HTTP %d: %s", code, body)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	models = nil
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(models) != 1 || models[0].Version != 2 || models[0].Stale {
		t.Fatalf("models after healed reload: %+v; want v2 not stale", models)
	}
	if code, rr := readyz(t, ts.Client(), ts.URL); code != http.StatusOK || rr.RegistryStale {
		t.Errorf("/readyz after healed reload: HTTP %d, %+v", code, rr)
	}
}

// TestChaosClientDeadline: a client-supplied X-Deadline-Ms bounds a
// hung store fetch — the request returns 503 deadline_exceeded
// promptly instead of wedging for the server default.
func TestChaosClientDeadline(t *testing.T) {
	checkGoroutines := goroutineBaseline(t)
	s, _, st := newTestServer(t, Options{
		DefaultDeadline:  10 * time.Second,
		BreakerThreshold: 1 << 30,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	faults.ArmOp(SiteStoreSeries, faults.OpHang(nil))
	t.Cleanup(disarmAll)

	_, snapA, _ := testFleet(t)
	day := snapA.TrainedThrough + 3
	driveID := anyDriveID(t, st, day)
	reqBody, _ := json.Marshal(ScoreRequest{Model: "serving", DriveID: &driveID, Day: &day})
	req, err := http.NewRequest("POST", ts.URL+"/v1/score", strings.NewReader(string(reqBody)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Deadline-Ms", "100")
	start := time.Now()
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || e.Code != "deadline_exceeded" {
		t.Fatalf("hung fetch with 100ms deadline: HTTP %d code %q", resp.StatusCode, e.Code)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("deadline-bounded request took %v; want ~100ms", took)
	}

	disarmAll()
	checkGoroutines()
}

// anyDriveID returns a drive ID of the fixture model that was still
// alive on the given day (its observed span covers it).
func anyDriveID(t *testing.T, st *store.Store, day int) int {
	t.Helper()
	snap := st.Snapshot()
	for id, ref := range snap.RefIndex(testModel) {
		if _, lastDay, err := snap.Series(ref); err == nil && lastDay >= day {
			return id
		}
	}
	t.Fatalf("no fixture drive alive on day %d", day)
	return -1
}

// inlineSeries builds a valid inline-series payload from the served
// snapshot's own feature set — whatever features the fixture selected.
func inlineSeries(t *testing.T, s *Server, day int) map[string][]float64 {
	t.Helper()
	sv := s.arts["serving"].cur.Load()
	inline := map[string][]float64{"MWI_N": nil}
	for _, g := range sv.groups {
		for _, ft := range g.feats {
			inline[ft.String()] = nil
		}
	}
	n := day + 1
	for name := range inline {
		col := make([]float64, n)
		for i := range col {
			col[i] = 0.5
		}
		inline[name] = col
	}
	return inline
}
