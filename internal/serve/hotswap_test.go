package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestHotSwapZeroDrop is the hot-swap correctness hammer: request
// goroutines pound the single-drive path while a saver loop publishes
// new registry versions (alternating two snapshots with distinct
// config hashes) and reloads the server. Every response must succeed
// and must carry a (version, config-hash) pair that the registry held
// at score time — no dropped requests, no mis-versioned responses,
// no stitched identity across a swap boundary.
func TestHotSwapZeroDrop(t *testing.T) {
	s, reg, _ := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, snapA, snapB := testFleet(t)

	// validHash[v] is the config hash of registry version v; guarded
	// by validMu. A version is recorded before Reload can serve it.
	validMu := sync.Mutex{}
	validHash := map[int]string{1: snapA.ConfigHash}

	const swaps = 20
	stopSaver := make(chan struct{})
	saverDone := make(chan struct{})
	go func() {
		defer close(saverDone)
		for i := 0; i < swaps; i++ {
			select {
			case <-stopSaver:
				return
			default:
			}
			snap := snapA
			if i%2 == 0 {
				snap = snapB
			}
			v, err := engine.SaveSnapshot(reg, "serving", snap)
			if err != nil {
				t.Errorf("save: %v", err)
				return
			}
			validMu.Lock()
			validHash[v] = snap.ConfigHash
			validMu.Unlock()
			if _, err := s.Reload(); err != nil {
				t.Errorf("reload: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Inline payloads over the snapshot's feature set, covering both
	// wear groups via the MWI value.
	featNames := map[string]bool{"MWI_N": true}
	for _, g := range snapA.Groups {
		for _, f := range g.Features {
			featNames[f] = true
		}
	}
	mkBody := func(rng *rand.Rand) []byte {
		series := map[string][]float64{}
		mwi := rng.Float64()
		for name := range featNames {
			col := make([]float64, 10)
			for i := range col {
				col[i] = rng.Float64()
			}
			if name == "MWI_N" {
				for i := range col {
					col[i] = mwi
				}
			}
			series[name] = col
		}
		data, err := json.Marshal(ScoreRequest{Model: "serving", Series: series})
		if err != nil {
			panic(err)
		}
		return data
	}

	const goroutines = 8
	const perG = 150
	type obs struct {
		version int
		hash    string
	}
	results := make([][]obs, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 100))
			bodies := make([][]byte, 8)
			for i := range bodies {
				bodies[i] = mkBody(rng)
			}
			for i := 0; i < perG; i++ {
				var resp ScoreResponse
				code, body := postJSONBytes(t, ts, bodies[i%len(bodies)], &resp)
				if code != 200 {
					t.Errorf("goroutine %d request %d: HTTP %d: %s", g, i, code, body)
					return
				}
				results[g] = append(results[g], obs{resp.Version, resp.ConfigHash})
			}
		}(g)
	}
	wg.Wait()
	close(stopSaver)
	<-saverDone

	total := 0
	validMu.Lock()
	defer validMu.Unlock()
	for g, obsList := range results {
		lastVersion := 0
		for i, o := range obsList {
			total++
			want, ok := validHash[o.version]
			if !ok {
				t.Fatalf("goroutine %d response %d: version %d was never saved", g, i, o.version)
			}
			if o.hash != want {
				t.Fatalf("goroutine %d response %d: version %d with hash %s, registry holds %s — mis-versioned response", g, i, o.version, o.hash, want)
			}
			// A goroutine's requests are sequential, and a swap is one
			// pointer store, so the version each goroutine observes can
			// only move forward.
			if o.version < lastVersion {
				t.Errorf("goroutine %d response %d: version went back from %d to %d", g, i, lastVersion, o.version)
			}
			lastVersion = o.version
		}
	}
	if want := goroutines * perG; total != want {
		t.Fatalf("%d responses for %d requests — dropped %d", total, want, want-total)
	}
	if got := s.Stats().Swaps; got != swaps {
		t.Errorf("swaps performed = %d, want %d", got, swaps)
	}
}

func postJSONBytes(t *testing.T, ts *httptest.Server, body []byte, out any) (int, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if out != nil && resp.StatusCode == 200 {
		if err := json.Unmarshal(buf, out); err != nil {
			t.Fatalf("decode %q: %v", buf, err)
		}
	}
	return resp.StatusCode, string(buf)
}

// TestWatchPicksUpPromotion: a registry save is hot-swapped by the
// poller without any explicit reload — the PR 7 controller promotion
// path goes live unattended.
func TestWatchPicksUpPromotion(t *testing.T) {
	s, reg, _ := newTestServer(t, Options{})
	s.Watch(time.Millisecond, func(err error) { t.Errorf("watch: %v", err) })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, _, snapB := testFleet(t)
	v, err := engine.SaveSnapshot(reg, "serving", snapB)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		sv := s.arts["serving"].cur.Load()
		if sv.version == v && sv.hash == snapB.ConfigHash {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("watcher never swapped to v%d", v)
}

// TestReloadKeepsLastGoodOnWidthMismatch: a promoted snapshot whose
// group feature list disagrees with its model's input width would
// fail every batch it scores, so reload refuses it as corrupt and the
// last good version keeps serving.
func TestReloadKeepsLastGoodOnWidthMismatch(t *testing.T) {
	s, reg, _ := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, snapA, snapB := testFleet(t)
	bad := *snapB
	bad.Groups = append([]engine.GroupSnapshot(nil), snapB.Groups...)
	g0 := &bad.Groups[0]
	g0.Features = g0.Features[:len(g0.Features)-1]
	if _, err := engine.SaveSnapshot(reg, "serving", &bad); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reload(); !errors.Is(err, engine.ErrSnapshotCorrupt) {
		t.Fatalf("reload of a width-mismatched snapshot: error = %v, want ErrSnapshotCorrupt", err)
	}

	day := snapA.TrainedThrough + 3
	var got ScoreResponse
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/score",
		ScoreRequest{Model: "serving", Series: inlineSeries(t, s, day)}, &got)
	if code != http.StatusOK {
		t.Fatalf("score after refused reload: HTTP %d: %s", code, body)
	}
	if got.Version != 1 || got.ConfigHash != snapA.ConfigHash {
		t.Errorf("served (v%d, %s); want last good (v1, %s)", got.Version, got.ConfigHash, snapA.ConfigHash)
	}
}
