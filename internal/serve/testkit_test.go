package serve

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/forest"
	"repro/internal/pipeline"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/store"
)

// The trained fixture is expensive relative to the tests that share
// it, so it is built once per test binary: a small simulated fleet
// and two snapshots of distinct configs (distinct config hashes, for
// hot-swap identity checks).
var fixtureOnce sync.Once
var fixture struct {
	src   dataset.Source
	snapA *engine.ModelSnapshot
	snapB *engine.ModelSnapshot
	err   error
}

const testModel = smart.MC1

func testCfg(seed int64) engine.Config {
	return engine.Config{
		Forest:   forest.Config{NumTrees: 8, MaxDepth: 5, Seed: seed},
		NegEvery: 20,
		Seed:     seed,
	}
}

func buildFixture() {
	f, err := simulate.New(simulate.Config{TotalDrives: 500, Seed: 7, AFRScale: 4})
	if err != nil {
		fixture.err = err
		return
	}
	src := dataset.FleetSource{Fleet: f}
	fixture.src = src
	ph := engine.StandardPhases(src.Days())[2]
	for i, seed := range []int64{1, 2} {
		res, err := engine.RunPhase(src, testModel, pipeline.NoSelection{}, ph, testCfg(seed))
		if err != nil {
			fixture.err = err
			return
		}
		snap, err := res.Snapshot()
		if err != nil {
			fixture.err = err
			return
		}
		if i == 0 {
			fixture.snapA = snap
		} else {
			fixture.snapB = snap
		}
	}
	if fixture.snapA.ConfigHash == fixture.snapB.ConfigHash {
		panic("fixture snapshots must have distinct config hashes")
	}
}

// testFleet returns the shared simulated fleet source and the two
// trained snapshots.
func testFleet(t *testing.T) (dataset.Source, *engine.ModelSnapshot, *engine.ModelSnapshot) {
	t.Helper()
	fixtureOnce.Do(buildFixture)
	if fixture.err != nil {
		t.Fatalf("fixture: %v", fixture.err)
	}
	return fixture.src, fixture.snapA, fixture.snapB
}

// newTestServer saves snapA as version 1 of artifact "serving" in a
// fresh registry and returns a server over it, plus the registry for
// saving further versions. A store over the shared fleet is attached
// with the full span pre-ingested.
func newTestServer(t *testing.T, opts Options) (*Server, *core.Registry, *store.Store) {
	t.Helper()
	src, snapA, _ := testFleet(t)
	reg := &core.Registry{Dir: t.TempDir()}
	if _, err := engine.SaveSnapshot(reg, "serving", snapA); err != nil {
		t.Fatal(err)
	}
	st := store.Open(src, store.Options{})
	if err := st.Track(testModel); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendThrough(src.Days() - 1); err != nil {
		t.Fatal(err)
	}
	opts.Registry = reg
	opts.Artifacts = []string{"serving"}
	opts.Store = st
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, reg, st
}

// loadReport counts one openLoop run's replies by status class.
type loadReport struct {
	OfferedQPS  float64
	Requests    int
	Accepted    int // 2xx
	Shed        int // 429
	Unavailable int // 503
	Errors      int // transport failures and any other status
}

// openLoop posts body to url at a fixed rate for span. Arrivals are
// open-loop: the dispatcher queues each one at its due time without
// waiting for replies, and workers goroutines drain the queue, so a
// slow server builds a backlog instead of slowing the offered rate.
func openLoop(client *http.Client, url string, body []byte, qps float64, span time.Duration, workers int) loadReport {
	n := int(qps * span.Seconds())
	gap := time.Duration(float64(time.Second) / qps)
	queue := make(chan struct{}, n) // one slot per arrival: the dispatcher never blocks
	var mu sync.Mutex
	rep := loadReport{OfferedQPS: qps, Requests: n}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range queue {
				status := 0
				if resp, err := client.Post(url, "application/json", bytes.NewReader(body)); err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					status = resp.StatusCode
				}
				mu.Lock()
				switch {
				case status >= 200 && status < 300:
					rep.Accepted++
				case status == http.StatusTooManyRequests:
					rep.Shed++
				case status == http.StatusServiceUnavailable:
					rep.Unavailable++
				default:
					rep.Errors++
				}
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * gap)))
		queue <- struct{}{}
	}
	close(queue)
	wg.Wait()
	return rep
}
