package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/serve"
)

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		ok      bool
		value   float64
		pct     float64
		comment string
	}{
		{n: 10, ok: false, comment: "ten samples leave none below ten beyond"},
		{n: 11, ok: true, value: 1, pct: 100.0 / 11, comment: "smallest sample with a tail"},
		{n: 100, ok: true, value: 90, pct: 90},
		{n: 1000, ok: true, value: 990, pct: 99},
		{n: 2000, ok: true, value: 1990, pct: 99.5},
	} {
		sorted := make([]float64, tc.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		got := tail(sorted)
		if got.OK != tc.ok || got.N != tc.n {
			t.Fatalf("n=%d: tail %+v, want ok=%v (%s)", tc.n, got, tc.ok, tc.comment)
		}
		if !tc.ok {
			continue
		}
		if got.Value != tc.value || math.Abs(got.Pct-tc.pct) > 1e-9 {
			t.Errorf("n=%d: tail %v at p%v, want %v at p%v", tc.n, got.Value, got.Pct, tc.value, tc.pct)
		}
		beyond := 0
		for _, v := range sorted {
			if v > got.Value {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if got := percentile(s, 0.5); got != 2 {
		t.Errorf("nearest-rank p50 of 1..4 = %v, want 2", got)
	}
	if got := percentile(s, 1); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty samples must give NaN, not a number that looks measured")
	}
}

func TestRatioBases(t *testing.T) {
	d := delta(serve.Stats{Coalesced: 100, Flushes: 40, AgeFlushes: 10},
		serve.Stats{Coalesced: 400, Flushes: 140, AgeFlushes: 35})
	if r := d.rowsPerFlush(); r.Num != 300 || r.Den != 100 || r.Value() != 3 {
		t.Errorf("rows per flush %+v = %v, want 300/100 = 3", r, r.Value())
	}
	if r := d.ageFlushFrac(); r.Num != 25 || r.Den != 100 || r.Value() != 0.25 {
		t.Errorf("age flush share %+v = %v, want 25/100", r, r.Value())
	}
	if got := (ratio{5, 0}).Value(); got != 0 {
		t.Errorf("ratio over an empty base = %v, want 0", got)
	}
	if s := (ratio{3, 12}).String(); !strings.Contains(s, "(3 / 12)") {
		t.Errorf("ratio %q does not print its base", s)
	}
}

// rung builds a rung whose single path has n accepted samples of
// latency lat ms.
func rung(n int, lat float64, failed int, drain time.Duration) rungResult {
	r := rungResult{Drain: drain}
	for i := 0; i < n; i++ {
		r.Paths[kSingle].Lat = append(r.Paths[kSingle].Lat, lat)
	}
	r.Paths[kSingle].Failed = failed
	return r
}

func TestLadderRules(t *testing.T) {
	const limit = 50
	cases := []struct {
		name string
		r    rungResult
		pass bool
	}{
		{"fast", rung(100, 3, 0, time.Millisecond), true},
		{"tail over limit", rung(100, 60, 0, time.Millisecond), false},
		{"one failed request", rung(100, 3, 1, time.Millisecond), false},
		{"growing backlog", rung(100, 3, 0, 200*time.Millisecond), false},
		{"too few samples for a tail", rung(5, 3, 0, 0), false},
	}
	for _, tc := range cases {
		if got := tc.r.passes(limit); got != tc.pass {
			t.Errorf("%s: passes = %v, want %v", tc.name, got, tc.pass)
		}
	}
	for _, tc := range []struct {
		pass []bool
		want int
	}{
		{nil, -1},
		{[]bool{false}, -1},
		{[]bool{true, true, false}, 1},
		{[]bool{true, false, true}, 0},
		{[]bool{true, true, true, true}, 3},
	} {
		if got := sloRung(tc.pass); got != tc.want {
			t.Errorf("sloRung(%v) = %d, want %d", tc.pass, got, tc.want)
		}
	}
}

func TestKneeLadder(t *testing.T) {
	rates := kneeRates()
	if len(rates) != ladderRungs || rates[0] <= refRate {
		t.Fatalf("knee ladder %v: want %d rungs above the reference rate", rates, ladderRungs)
	}
	for i := 1; i < len(rates); i++ {
		if step := rates[i] / rates[i-1]; step < 1.1 || step > 1.2 {
			t.Errorf("rung %v follows %v: step %.3f, want 1.1-1.2", rates[i], rates[i-1], step)
		}
	}
	// The knee on 2 connections lies at 800-1000 req/s: the ladder must
	// bracket it with rungs on both sides.
	if rates[0] > 800 || rates[len(rates)-1] < 1200 {
		t.Errorf("ladder %v does not bracket 800-1000 req/s", rates)
	}
}

func TestGeneratorCut(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	g := newGenerator(srv.URL, 2)
	defer g.close()
	jobs := make([]job, 500) // all due at once: far more than fits
	replies := g.run(jobs, 50*time.Millisecond)
	r := summarize(1e4, 50*time.Millisecond, jobs, replies)
	if r.sent() == 0 || r.sent() >= len(jobs) || r.failed() != 0 {
		t.Fatalf("cut schedule: %d sent, %d failed of %d", r.sent(), r.failed(), len(jobs))
	}
	// Two connections at about 2 ms a request: the goodput is the
	// server's capacity, not the offered rate.
	if r.Achieved < 100 || r.Achieved > 1100 {
		t.Errorf("goodput %.0f req/s, want about 1000 or less", r.Achieved)
	}
}

func TestReplayBodies(t *testing.T) {
	id := 7
	body, _ := json.Marshal(serve.ScoreRequest{Model: artifact, DriveID: &id})
	probe, err := unknownModel(body)
	if err != nil || len(probe) != len(body) || bytes.Contains(probe, []byte(`"`+artifact+`"`)) {
		t.Fatalf("unknownModel(%s) = %s, %v", body, probe, err)
	}
	if _, err := unknownModel([]byte(`{"model":"other"}`)); err == nil {
		t.Error("a body naming another model must be an error")
	}
	batch, err := batchOfOne(body)
	var br serve.BatchRequest
	if err != nil || json.Unmarshal(batch, &br) != nil || br.Model != artifact || len(br.Drives) != 1 || *br.Drives[0].DriveID != id {
		t.Fatalf("batchOfOne(%s) = %s, %v", body, batch, err)
	}
}

func TestControllerCheckRejectsKeep(t *testing.T) {
	// A refresh whose candidate failed to train ends in a keep verdict.
	r := &ctlRun{res: &control.Result{Refreshes: 1, Keeps: 1, ServingVersion: 1}, drifts: []int{ctlEnd}, dir: t.TempDir()}
	bad := r.check(nil)
	if len(bad) < 2 || !strings.Contains(bad[0], "1 kept") || !strings.Contains(bad[1], "candidate v2") {
		t.Errorf("keep verdict without a candidate passed the check: %q", bad)
	}
	ok := &control.Result{Refreshes: 1, Promotions: 1, ServingVersion: 2, Events: []string{"a"}}
	r.res = &control.Result{Refreshes: 1, Promotions: 1, ServingVersion: 2, Events: []string{"b"}}
	if bad := r.check(ok); len(bad) == 0 || !strings.Contains(bad[len(bad)-1], "differ") {
		t.Errorf("a repetition with other decisions passed the check: %q", bad)
	}
}

func TestPoissonSchedule(t *testing.T) {
	jobs := poisson(rand.New(rand.NewSource(7)), 1000, 2*time.Second, [numKinds]float64{kSingle: 0.9, kBatch: 0.1})
	again := poisson(rand.New(rand.NewSource(7)), 1000, 2*time.Second, [numKinds]float64{kSingle: 0.9, kBatch: 0.1})
	for i := range jobs {
		if jobs[i].due != again[i].due || jobs[i].kind != again[i].kind {
			t.Fatal("the same seed must give the same schedule")
		}
	}
	if n := len(jobs); n != 2000 {
		t.Errorf("%d arrivals at 1000/s over 2s, want 2000", n)
	}
	batch := 0
	for i, j := range jobs {
		if i > 0 && j.due < jobs[i-1].due {
			t.Fatal("arrivals out of order")
		}
		if j.kind == kBatch {
			batch++
		}
	}
	if batch != 200 {
		t.Errorf("%d batches of 2000 arrivals, want exactly 10%%", batch)
	}
}

func TestCheckerCatchesPerturbedScore(t *testing.T) {
	const want = 0.734
	c := &checker{
		prob:   func(drive, day int) (float64, error) { return want, nil },
		fleet:  func(day int) (fleetSummary, error) { return fleetSummary{Drives: 10, Alarms: 2, MeanProb: want}, nil },
		thresh: func(int) float64 { return 0.5 },
	}
	c.score(serve.ScoreResponse{Prob: want, Alarm: true}, 1, 2)
	c.fleetPass(serve.FleetResponse{Drives: 10, Alarms: 2, MeanProb: want})
	if c.bad != 0 {
		t.Fatalf("exact responses flagged: %v", c.notes)
	}
	c.score(serve.ScoreResponse{Prob: math.Nextafter(want, 1), Alarm: true}, 1, 2)
	if c.bad != 1 {
		t.Fatalf("a score one ulp off was not caught")
	}
	c.score(serve.ScoreResponse{Prob: want, Alarm: false}, 1, 2)
	if c.bad != 2 {
		t.Fatalf("an alarm inconsistent with the threshold was not caught")
	}
	c.fleetPass(serve.FleetResponse{Drives: 10, Alarms: 2, MeanProb: math.Nextafter(want, 0)})
	if c.bad != 3 || c.checked != 5 {
		t.Fatalf("a perturbed fleet mean was not caught: bad %d of %d", c.bad, c.checked)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "decode", Start: 1 * ms, End: 3 * ms},
		{ID: 3, Parent: 1, Name: "score", Start: 2 * ms, End: 6 * ms}, // overlaps decode
		{ID: 4, Parent: 3, Name: "kernel", Start: 4 * ms, End: 5 * ms},
		{ID: 5, Parent: 1, Name: "encode", Start: 9 * ms, End: 12 * ms}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"request": 10*ms - 5*ms - 1*ms, // children cover [1,6] and [9,10]
		"decode":  2 * ms,
		"score":   3 * ms,
		"kernel":  1 * ms,
		"encode":  3 * ms,
	}
	for name, w := range want {
		if got := self[name]; len(got) != 1 || got[0] != w {
			t.Errorf("self time of %s = %v, want %v", name, got, w)
		}
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *tracer
	id := tr.open("x", 0, 1)
	tr.end(id)
	if tr.snapshot() != nil || id != 0 {
		t.Error("a nil tracer must record nothing")
	}
	tr = newTracer()
	d := tr.timed("outer", 0, 1, func(id int64) { tr.timed("inner", id, 1, func(int64) {}) })
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || d <= 0 {
		t.Errorf("nested spans %v", spans)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables the
// benchmark prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] || w.Why == "" {
			t.Errorf("workload %d: %q (why %q), want %q with a reason", i, w.Name, w.Why, workloads[i])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d measured", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v, want %+v with a bound in (0, 0.25]", i, m, endToEnd[i])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d measured", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %+v, want %+v", i, m, perLayer[i])
		}
	}
}

func TestResultLine(t *testing.T) {
	oc := &outcome{correct: true, attempted: 3, metrics: map[string]float64{"setup_s": 1, "p50_ms": 2, "side_p50_ms": 3, "rate_per_s": 4}}
	line, err := resultLine(oc, endToEnd, false)
	if err != nil {
		t.Fatal(err)
	}
	var r resultOut
	if err := json.Unmarshal([]byte(line), &r); err != nil || len(r.Metrics) != 4 || r.Metrics["rate_per_s"].Unit != "1/s" {
		t.Fatalf("result line %s: %v", line, err)
	}
	delete(oc.metrics, "p50_ms")
	if _, err := resultLine(oc, endToEnd, false); err == nil {
		t.Error("a missing end-to-end metric must be an error")
	}
	oc.metrics["p50_ms"] = math.NaN()
	if _, err := resultLine(oc, endToEnd, false); err == nil {
		t.Error("a NaN metric must be an error")
	}
}
