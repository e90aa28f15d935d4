package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/featgen"
	"repro/internal/serve"
	"repro/internal/smart"
	"repro/internal/stats"
	"repro/internal/store"
)

// timedSource counts and times the Series calls a store makes into its
// upstream dataset.Source.
type timedSource struct {
	dataset.Source
	calls atomic.Int64
	nanos atomic.Int64
}

func (s *timedSource) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	start := time.Now()
	cols, last, err := s.Source.Series(ref)
	s.nanos.Add(int64(time.Since(start)))
	s.calls.Add(1)
	return cols, last, err
}

func (s *timedSource) ms() float64 { return float64(s.nanos.Load()) / 1e6 }

// replayer pushes a request's exact body through the public functions
// behind the daemon's layers, one span per layer: store read,
// featurization, kernel, encode. Its row assembly mirrors the daemon's
// unexported one (serve's driveRow and checkSeries), so its featurize
// figure is an approximation of the daemon's; its probabilities are
// checked against the oracle like the daemon's.
type replayer struct {
	tr      *tracer
	scorer  *engine.Scorer
	windows []int
	feats   [][]smart.Feature
	rows    [][]float64   // per group: one model-input row
	cols1   [][][]float64 // per group: single-row column views into rows
	gen     [][]float64
	rolling []stats.RollingStats
	out     []float64
}

func newReplayer(tr *tracer, sc *engine.Scorer) *replayer {
	rp := &replayer{tr: tr, scorer: sc, windows: sc.Windows(), out: make([]float64, 1)}
	for g := 0; g < sc.NumGroups(); g++ {
		row := make([]float64, sc.GroupInputWidth(g))
		cols := make([][]float64, len(row))
		for c := range cols {
			cols[c] = row[c : c+1]
		}
		rp.feats = append(rp.feats, sc.GroupFeatures(g))
		rp.rows = append(rp.rows, row)
		rp.cols1 = append(rp.cols1, cols)
	}
	for i := 0; i < featgen.NumGenerated(rp.windows); i++ {
		rp.gen = append(rp.gen, make([]float64, 1))
	}
	return rp
}

// parseSeries converts an inline upload to feature columns, as the
// daemon's validation does, and returns the scored (last) day.
func parseSeries(raw map[string][]float64) (map[smart.Feature][]float64, int, error) {
	cols := make(map[smart.Feature][]float64, len(raw))
	n := -1
	for name, vals := range raw {
		ft, err := smart.ParseFeature(name)
		if err != nil {
			return nil, 0, err
		}
		if n >= 0 && len(vals) != n {
			return nil, 0, fmt.Errorf("feature %s has %d days, others %d", name, len(vals), n)
		}
		n = len(vals)
		cols[ft] = vals
	}
	return cols, n - 1, nil
}

// featurize routes the drive-day to its wear group and fills that
// group's row: the selected features at the day, then each feature's
// window statistics.
func (rp *replayer) featurize(cols map[smart.Feature][]float64, day int) (int, error) {
	mwi := 0.0
	if col, ok := cols[engine.MWIFeature]; ok {
		mwi = col[day]
	}
	g := rp.scorer.PickGroup(mwi)
	if g < 0 {
		return g, fmt.Errorf("no wear group admits MWI %v", mwi)
	}
	feats, row := rp.feats[g], rp.rows[g]
	nGen := len(rp.gen)
	for i, ft := range feats {
		col, ok := cols[ft]
		if !ok {
			return g, fmt.Errorf("series lacks %v", ft)
		}
		row[i] = col[day]
	}
	for fi, ft := range feats {
		var err error
		rp.rolling, err = featgen.GenerateRangeInto(rp.gen, cols[ft], rp.windows, day, day, rp.rolling)
		if err != nil {
			return g, err
		}
		for j := 0; j < nGen; j++ {
			row[len(feats)+fi*nGen+j] = rp.gen[j][0]
		}
	}
	return g, nil
}

// single replays one /v1/score body. snap serves store-backed requests.
func (rp *replayer) single(req int64, body []byte, snap *store.Snapshot) (serve.ScoreResponse, int, error) {
	root := rp.tr.open("replay.single", 0, req)
	defer rp.tr.end(root)
	var sr serve.ScoreRequest
	var cols map[smart.Feature][]float64
	var day int
	var err error
	if err = json.Unmarshal(body, &sr); err == nil && sr.Series != nil {
		cols, day, err = parseSeries(sr.Series)
	}
	if err != nil {
		return serve.ScoreResponse{}, 0, err
	}
	drive := 0
	if sr.DriveID != nil {
		drive = *sr.DriveID
		rp.tr.timed("store.series", root, req, func(int64) {
			ref, ok := snap.RefIndex(smart.MC1)[drive]
			if !ok {
				err = fmt.Errorf("no drive %d", drive)
				return
			}
			cols, day, err = snap.SeriesCtx(context.Background(), ref)
		})
		if err != nil {
			return serve.ScoreResponse{}, 0, err
		}
	}
	var g int
	rp.tr.timed("featgen.row", root, req, func(int64) { g, err = rp.featurize(cols, day) })
	if err != nil {
		return serve.ScoreResponse{}, 0, err
	}
	rp.tr.timed("engine.score_batch.1", root, req, func(int64) { err = rp.scorer.ScoreBatch(g, rp.cols1[g], rp.out) })
	if err != nil {
		return serve.ScoreResponse{}, 0, err
	}
	p, thr := rp.out[0], rp.scorer.GroupThreshold(g)
	resp := serve.ScoreResponse{Model: artifact, DriveID: drive, Day: day, Group: g, Prob: p, Threshold: thr, Alarm: p >= thr}
	rp.tr.timed("serve.encode", root, req, func(int64) {
		var buf bytes.Buffer
		err = json.NewEncoder(&buf).Encode(resp)
	})
	return resp, day, err
}

// scoreBatch64 times the kernel on a 64-row batch of group g built by
// repeating row.
func (rp *replayer) scoreBatch64(req int64, g int, row []float64) error {
	cols := make([][]float64, len(row))
	for c := range cols {
		cols[c] = make([]float64, batchDrives)
		for r := range cols[c] {
			cols[c][r] = row[c]
		}
	}
	out := make([]float64, batchDrives)
	var err error
	rp.tr.timed("engine.score_batch.64", 0, req, func(int64) { err = rp.scorer.ScoreBatch(g, cols, out) })
	return err
}

// local serves one request through an in-process handler and returns
// its status and body.
func local(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// unknownModel returns body with the artifact name changed to one the
// daemon does not serve, at the same length: the handler decodes it in
// full, then answers 404 before any scoring.
func unknownModel(body []byte) ([]byte, error) {
	from := []byte(`"model":"` + artifact + `"`)
	to := []byte(`"model":"` + artifact[:len(artifact)-1] + `_"`)
	if !bytes.Contains(body, from) {
		return nil, fmt.Errorf("body does not name model %q", artifact)
	}
	return bytes.Replace(body, from, to, 1), nil
}

// batchOfOne turns a single-score body into a /v1/score/batch body for
// the same drive-day: the batch path skips the coalescer.
func batchOfOne(body []byte) ([]byte, error) {
	var sr serve.ScoreRequest
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, err
	}
	return json.Marshal(serve.BatchRequest{Model: sr.Model, Drives: []serve.BatchDrive{{DriveID: sr.DriveID, Series: sr.Series}}})
}

// traceLayers replays a sample of the reference rung's exact inputs,
// against an identically seeded store and the daemon's registry
// snapshot, through the daemon's own HTTP handler built in this process
// and through the public functions behind each of its layers, and
// replaces the run's metrics with the per-layer ones.
func (e *serveEnv) traceLayers(oc *outcome, tr *tracer, lr *ladderRun, rtt, unloaded float64, reg string, out io.Writer, work string, seed int64) error {
	ref := lr.rungs[0]
	dl := lr.deltas[0]
	m := map[string]float64{
		"serve.rows_per_flush":     dl.rowsPerFlush().Value(),
		"serve.age_flush_frac":     dl.ageFlushFrac().Value(),
		"serve.shed":               float64(lr.all.Shed),
		"serve.deadline_exceeded":  float64(lr.all.Deadline),
		"serve.errors":             float64(lr.all.Errors),
		"serve.http_rtt_us":        rtt * 1000,
		"serve.unloaded_single_ms": unloaded,
		"serve.queue_ms":           percentile(ref.Paths[kSingle].Lat, 0.5) - unloaded,
		"gen.lag_p50_us":           float64(ref.LagP50) / 1e3,
	}
	fmt.Fprintf(out, "per-layer (traced run):\n")
	fmt.Fprintf(out, "  serve counters at the reference rung: rows/flush %s, age-triggered flush share %s\n", dl.rowsPerFlush(), dl.ageFlushFrac())
	fmt.Fprintf(out, "  serve shed %d, deadline_exceeded %d, errors %d of %d attempted (all rungs)\n", lr.all.Shed, lr.all.Deadline, lr.all.Errors, lr.attempted)

	// An identically seeded store behind a timed Source, ingested to the
	// daemon's boot horizon.
	ts := &timedSource{Source: e.src}
	rst := store.Open(ts, store.Options{Workers: 1})
	defer rst.Close()
	if err := rst.Track(smart.MC1); err != nil {
		return err
	}
	if err := rst.AppendThrough(e.h0); err != nil {
		return err
	}
	m["dataset.series_ms"] = ts.ms()
	m["dataset.series_calls"] = float64(ts.calls.Load())
	snap := rst.Snapshot()

	// The daemon's handler, in this process, on the daemon's registry
	// and the replay store, with cmd/serve's default options.
	srv, err := serve.New(serve.Options{Registry: &core.Registry{Dir: reg}, Artifacts: []string{artifact}, Store: rst})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()

	// The daemon builds its scorer with Workers 0 (all cores).
	sc, err := engine.NewScorer(e.scorer.Snapshot(), 0)
	if err != nil {
		return err
	}
	rp := newReplayer(tr, sc)
	badBefore := e.chk.bad
	var req int64 = 1 << 40 // replay request IDs sit above the generator's
	const sample = 200
	rowsByGroup := make(map[int][]float64)
	var waits []time.Duration
	nSingle, nBatch := 0, 0
	for _, j := range lr.refJobs {
		switch {
		case j.kind == kSingle && nSingle < sample:
			nSingle++
			g, err := e.replaySingle(h, rp, snap, j, &req, &waits)
			if err != nil {
				return err
			}
			if _, ok := rowsByGroup[g]; !ok {
				rowsByGroup[g] = append([]float64(nil), rp.rows[g]...)
			}
		case j.kind == kBatch && nBatch < sample/10:
			nBatch++
			req++
			probe, err := unknownModel(j.body)
			if err != nil {
				return err
			}
			var code int
			tr.timed("serve.decode.batch", 0, req, func(int64) { code, _ = local(h, kindPath[kBatch], probe) })
			if code != http.StatusNotFound {
				return fmt.Errorf("batch decode probe: status %d, want 404", code)
			}
		}
	}
	for g, row := range rowsByGroup {
		for i := 0; i < 20; i++ {
			req++
			if err := rp.scoreBatch64(req, g, row); err != nil {
				return err
			}
		}
	}
	if e.sp.store {
		var buf engine.ScoreBuf
		for _, in := range e.pool[kFleet] {
			req++
			var outs []engine.DriveOutcome
			var err error
			tr.timed("engine.score_fleet", 0, req, func(int64) { outs, err = sc.ScoreInto(snap, in.day, in.day, &buf) })
			if err != nil {
				return err
			}
			sum := summarizeFleet(outs)
			e.chk.fleetPass(serve.FleetResponse{Day: in.day, Drives: sum.Drives, Alarms: sum.Alarms, MeanProb: sum.MeanProb})
			tr.timed("store.day_columns", 0, req, func(int64) { _, _, _, err = snap.DayColumns(smart.MC1, in.day) })
			if err != nil {
				return err
			}
		}
		for k := 1; k <= ingestDays; k++ {
			req++
			var err error
			tr.timed("store.append", 0, req, func(int64) { err = rst.AppendThrough(e.h0 + k) })
			if err != nil {
				return err
			}
		}
		c := rst.Counters()
		m["store.fetches"] = float64(c.SeriesFetches)
		m["store.retries"] = float64(c.FetchRetries)
	}
	if n := e.chk.bad - badBefore; n > 0 {
		oc.correct = false
		oc.failed += n
		fmt.Fprintf(out, "CORRECTNESS FAILED in replay: %d mismatches: %v\n", n, e.chk.notes)
	}

	overhead, err := e.overhead(tr)
	if err != nil {
		return err
	}
	self := selfTimes(tr.snapshot())
	us, ms := time.Microsecond, time.Millisecond
	m["serve.handler_single_us"] = layerMedian(self, "serve.handler.single", us)
	m["serve.handler_batch1_us"] = layerMedian(self, "serve.handler.batch1", us)
	m["serve.coalescer_wait_us"] = medianDur(waits, us)
	m["serve.decode_us.single"] = layerMedian(self, "serve.decode.single", us)
	m["serve.decode_us.batch"] = layerMedian(self, "serve.decode.batch", us)
	m["serve.encode_us"] = layerMedian(self, "serve.encode", us)
	m["store.series_us"] = layerMedian(self, "store.series", us)
	m["store.append_ms"] = layerMedian(self, "store.append", ms)
	m["store.day_columns_ms"] = layerMedian(self, "store.day_columns", ms)
	m["featgen.row_us"] = layerMedian(self, "featgen.row", us)
	m["engine.score_batch_us.1"] = layerMedian(self, "engine.score_batch.1", us)
	m["engine.score_batch_us.64"] = layerMedian(self, "engine.score_batch.64", us)
	m["engine.score_fleet_ms"] = layerMedian(self, "engine.score_fleet", ms)
	m["trace.overhead_pct"] = overhead

	// Layer sum of one unloaded single request. Decode and the coalescer
	// wait come from the daemon's own handler; store read, kernel and
	// featurization from the public functions behind them (the last
	// through the mirrored row assembly); encode times encoding/json on
	// the response type, as the handler's writeJSON does. The remainder
	// is HTTP beyond /healthz, inline-series validation and dispatch.
	parts := []struct {
		name string
		ms   float64
	}{
		{"http round trip (/healthz)", rtt},
		{"decode + admission (handler)", m["serve.decode_us.single"] / 1000},
		{"store series", m["store.series_us"] / 1000},
		{"featurize (mirrored)", m["featgen.row_us"] / 1000},
		{"kernel (1 row)", m["engine.score_batch_us.1"] / 1000},
		{"encode", m["serve.encode_us"] / 1000},
		{"coalescer wait (handler)", m["serve.coalescer_wait_us"] / 1000},
	}
	var sum float64
	for _, p := range parts {
		sum += p.ms
	}
	m["serve.residual_ms"] = unloaded - sum
	m["layersum.e2e_ms"] = unloaded
	m["layersum.sum_ms"] = sum
	m["layersum.remainder_pct"] = 100 * (unloaded - sum) / unloaded
	fmt.Fprintf(out, "  layer sum for one unloaded single request (base: serve.unloaded_single_ms = %.4f ms, median of %d):\n", unloaded, unloadedN)
	for _, p := range parts {
		fmt.Fprintf(out, "    %-32s %.4f ms (%.1f%%)\n", p.name, p.ms, 100*p.ms/unloaded)
	}
	fmt.Fprintf(out, "    sum of layers                    %.4f ms; unexplained remainder %.4f ms = %.1f%% of %.4f ms\n",
		sum, unloaded-sum, m["layersum.remainder_pct"], unloaded)
	hs := m["serve.handler_single_us"] / 1000
	fmt.Fprintf(out, "  in-process handler: single %.4f ms, 1-drive batch %.4f ms; network and process boundary (unloaded - handler single) %.4f ms = %.1f%%\n",
		hs, m["serve.handler_batch1_us"]/1000, unloaded-hs, 100*(unloaded-hs)/unloaded)
	fmt.Fprintf(out, "  tracing overhead: %.2f%% on the unloaded single p50 (traced vs untraced, alternating blocks)\n", overhead)
	printLayers(out, m)

	path := filepath.Join(work, fmt.Sprintf("trace-%s-%d.jsonl", e.sp.name, seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "  %d spans written to %s\n", len(tr.snapshot()), path)
	oc.metrics = m
	return nil
}

// replaySingle replays one single-score job: through the in-process
// handler as sent, as a 1-drive batch, and with an unknown model name
// (decode only), then through the replayer's layers. Every response is
// checked against the oracle; the paired single minus batch time is
// the coalescer wait, appended to waits. It returns the wear group the
// request was scored in.
func (e *serveEnv) replaySingle(h http.Handler, rp *replayer, snap *store.Snapshot, j job, req *int64, waits *[]time.Duration) (int, error) {
	tr := rp.tr
	in := e.pool[kSingle][j.tag]
	batch, err := batchOfOne(j.body)
	if err != nil {
		return 0, err
	}
	probe, err := unknownModel(j.body)
	if err != nil {
		return 0, err
	}
	var code int
	var body []byte
	*req++
	dSingle := tr.timed("serve.handler.single", 0, *req, func(int64) { code, body = local(h, kindPath[kSingle], j.body) })
	if code != http.StatusOK {
		return 0, fmt.Errorf("in-process single: status %d %s", code, body)
	}
	e.check([]job{j}, []reply{{sent: true, status: code, body: body}})

	*req++
	dBatch := tr.timed("serve.handler.batch1", 0, *req, func(int64) { code, body = local(h, kindPath[kBatch], batch) })
	var br serve.BatchResponse
	if code != http.StatusOK || json.Unmarshal(body, &br) != nil || len(br.Results) != 1 {
		return 0, fmt.Errorf("in-process 1-drive batch: status %d %s", code, body)
	}
	if e.sp.store {
		e.chk.score(br.Results[0], in.drive, br.Results[0].Day)
	} else {
		e.chk.score(br.Results[0], in.days[0].Drive, in.days[0].Day)
	}
	*waits = append(*waits, dSingle-dBatch)

	*req++
	tr.timed("serve.decode.single", 0, *req, func(int64) { code, body = local(h, kindPath[kSingle], probe) })
	if code != http.StatusNotFound {
		return 0, fmt.Errorf("single decode probe: status %d %s, want 404", code, body)
	}

	*req++
	resp, day, err := rp.single(*req, j.body, snap)
	if err != nil {
		return 0, fmt.Errorf("replay single: %w", err)
	}
	if e.sp.store {
		e.chk.score(resp, in.drive, day)
	} else {
		e.chk.score(resp, in.days[0].Drive, in.days[0].Day)
	}
	return resp.Group, nil
}

// overhead compares the unloaded single p50 with client spans on and
// off, in alternating blocks, and returns the traced excess in percent
// of the untraced p50.
func (e *serveEnv) overhead(tr *tracer) (float64, error) {
	var on, off []time.Duration
	for block := 0; block < 8; block++ {
		e.gen.tr = nil
		if block%2 == 1 {
			e.gen.tr = tr
		}
		for i := 0; i < 25; i++ {
			tag := (block*25 + i) % len(e.pool[kSingle])
			start := time.Now()
			id := e.gen.tr.open("client.single", 0, e.gen.nextReq.Add(1))
			code, body := e.gen.post(e.gen.clients[0], kindPath[kSingle], e.pool[kSingle][tag].body)
			e.gen.tr.end(id)
			d := time.Since(start)
			if code != 200 {
				return 0, fmt.Errorf("overhead probe: status %d %s", code, body)
			}
			if e.gen.tr != nil {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	e.gen.tr = tr
	a, b := medianDur(off, time.Microsecond), medianDur(on, time.Microsecond)
	return 100 * (b - a) / a, nil
}

// printLayers prints every per-layer metric the run measured.
func printLayers(out io.Writer, m map[string]float64) {
	for _, d := range perLayer {
		if v, ok := m[d.name]; ok {
			fmt.Fprintf(out, "  %-32s %.4f %s\n", d.name, v, d.unit)
		}
	}
}
