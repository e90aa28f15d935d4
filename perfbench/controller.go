package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/changepoint"
	"repro/internal/complexity"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/forest"
	"repro/internal/pipeline"
	"repro/internal/runlog"
	"repro/internal/selection"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/store"
)

const ctlWorkload = "controller-mc2"

// The MC2 firmware-bug scenario of cmd/controller's crash tests on a
// third of its fleet: an MC2-only fleet whose firmware-failure episode
// ends at day 300.
// The bootstrap snapshot trains through day 254, and the drift window
// [255, 314] straddles the episode's end, so the detector fires once
// the window first fills, on day 314. The span ends there, so exactly
// one refresh closes the run.
//
// The fleet is the scenario's own (simulator seed 1) and the workload
// seed seeds training. Fleets drawn from other simulator seeds changed
// the refresh's work by up to 1.8x (4.9 s to 8.8 s at 450 drives on a
// 2-vCPU VM), which would swamp any regression bound. At 150 drives one
// control.Run takes about 2.5 s there, so a run's figures are medians
// of several repetitions.
const (
	ctlDrives = 150
	ctlDays   = 330
	ctlAFR    = 6
	ctlTrees  = 5
	ctlDepth  = 6
	ctlStart  = 255
	ctlEnd    = 314
	ctlCanary = 21
	ctlWindow = 60
	ctlBuilds = 9 // fleet builds timed per run for setup_s
)

var ctlFleet = simulate.Config{TotalDrives: ctlDrives, Days: ctlDays, Seed: 1, AFRScale: ctlAFR, Models: []smart.ModelID{smart.MC2}}

func ctlEngineConfig(seed int64) engine.Config {
	return engine.Config{Forest: forest.Config{NumTrees: ctlTrees, MaxDepth: ctlDepth, Seed: seed}, Seed: seed}
}

// ctlRun is one timed control.Run.
type ctlRun struct {
	res     *control.Result
	wall    time.Duration
	refresh time.Duration // drift-fired log line to the return of control.Run
	drifts  []int         // days the drift detector fired on
	dir     string
}

// controlRun runs the scenario once in a fresh state directory.
func controlRun(src dataset.Source, ecfg engine.Config, dir string) (*ctlRun, error) {
	r := &ctlRun{dir: dir}
	var driftAt time.Time
	cfg := control.Config{
		Model: smart.MC2, Selector: pipeline.WEFR{}, Engine: ecfg,
		Start: ctlStart, End: ctlEnd, CanaryDays: ctlCanary, MinWindow: ctlWindow,
		Dir: dir,
		Log: func(format string, args ...any) {
			if strings.Contains(format, "drift fired") {
				driftAt = time.Now()
				if day, ok := args[0].(int); ok {
					r.drifts = append(r.drifts, day)
				}
			}
		},
	}
	start := time.Now()
	res, err := control.Run(src, cfg)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	r.res, r.wall = res, end.Sub(start)
	if !driftAt.IsZero() {
		r.refresh = end.Sub(driftAt)
	}
	return r, nil
}

// check compares the run with the scenario's known outcome: one drift
// firing, on the last day, and one refresh that trained candidate v2
// and gave a canary verdict, promote or roll back. A keep means the
// candidate failed to train or the canary could not score it. The
// serving version must follow the verdict, and every repetition of a
// seed must log the decisions of the first (want; nil for the first).
// It returns the mismatches.
func (r *ctlRun) check(want *control.Result) []string {
	var bad []string
	if len(r.drifts) != 1 || r.drifts[0] != ctlEnd {
		bad = append(bad, fmt.Sprintf("drift fired on days %v, want once on day %d", r.drifts, ctlEnd))
	}
	if r.res.Refreshes != 1 {
		bad = append(bad, fmt.Sprintf("%d refreshes, want 1", r.res.Refreshes))
	}
	if r.res.Promotions+r.res.Rollbacks != 1 || r.res.Keeps != 0 {
		bad = append(bad, fmt.Sprintf("refresh verdicts: %d promoted, %d rolled back, %d kept; want one promote or rollback",
			r.res.Promotions, r.res.Rollbacks, r.res.Keeps))
	}
	reg := &core.Registry{Dir: filepath.Join(r.dir, "registry")}
	if v, err := reg.LatestVersion(control.DefaultArtifact); err != nil || v != 2 {
		bad = append(bad, fmt.Sprintf("registry holds version %d (%v), want the trained candidate v2", v, err))
	}
	serving := 1
	if r.res.Promotions == 1 {
		serving = 2
	}
	if r.res.ServingVersion != serving {
		bad = append(bad, fmt.Sprintf("serving v%d after %d promotions", r.res.ServingVersion, r.res.Promotions))
	}
	if want != nil && !slices.Equal(r.res.Events, want.Events) {
		bad = append(bad, fmt.Sprintf("decisions %q differ from the first repetition's %q", r.res.Events, want.Events))
	}
	return bad
}

func runController(o runOpts, out io.Writer) (*outcome, error) {
	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d", ctlWorkload, o.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up: simulate the fleet and materialize every drive's history,
	// so control.Run reads telemetry instead of generating it.
	var setups []float64
	var src dataset.Source
	for i := 0; i < ctlBuilds; i++ {
		start := time.Now()
		fleet, err := simulate.New(ctlFleet)
		if err != nil {
			return nil, err
		}
		cs := dataset.NewCachedSource(dataset.FleetSource{Fleet: fleet})
		for _, ref := range cs.DrivesOf(smart.MC2) {
			if _, _, err := cs.Series(ref); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		src = cs
	}
	fmt.Fprintf(out, "%s seed %d: fleet builds %.4f s\n", ctlWorkload, o.seed, setups)
	ecfg := ctlEngineConfig(o.seed)

	// Measure: whole control.Run repetitions until the measured time is
	// used up.
	oc := &outcome{correct: true}
	var walls, refreshes, outside, rates []float64
	budget := time.Duration(o.seconds) * time.Second
	begin := time.Now()
	var last *ctlRun
	var first *control.Result // the first repetition's decisions
	for i := 0; ; i++ {
		var stages *engine.StageReport
		var ts *timedSource
		runSrc := src
		if o.trace && i == 1 {
			// The second repetition of a traced run carries the
			// instruments; the first is its untraced twin.
			stages = &engine.StageReport{}
			ts = &timedSource{Source: src}
			runSrc = ts
		}
		cfg := ecfg
		cfg.Stages = stages
		r, err := controlRun(runSrc, cfg, filepath.Join(dir, fmt.Sprintf("run-%d", i)))
		if err != nil {
			return nil, err
		}
		oc.attempted++
		if bad := r.check(first); len(bad) > 0 {
			oc.correct = false
			oc.failed++
			fmt.Fprintf(out, "CORRECTNESS FAILED: %v\n", bad)
		}
		if first == nil {
			first = r.res
		}
		days := float64(ctlEnd - ctlStart + 1)
		fmt.Fprintf(out, "control.Run %d: %.3f s wall, refresh %.3f s, %s", i, r.wall.Seconds(), r.refresh.Seconds(), r.res)
		if o.trace && i == 1 {
			return oc, traceController(oc, o, src, ecfg, last, r, stages, ts, dir, out)
		}
		walls = append(walls, r.wall.Seconds())
		refreshes = append(refreshes, r.refresh.Seconds())
		outside = append(outside, 1000*(r.wall-r.refresh).Seconds()/days)
		rates = append(rates, days/r.wall.Seconds())
		last = r
		if !o.trace && time.Since(begin) >= budget {
			break
		}
	}
	if oc.correct {
		fmt.Fprintf(out, "correctness: every run fired drift once, on day %d, trained candidate v2 and logged the same canary verdict\n", ctlEnd)
	}
	fmt.Fprintf(out, "end-to-end (median of %d control.Run):\n", len(walls))
	fmt.Fprintf(out, "  setup_s          %.4f s (fleet build, median of %d)\n", median(setups), ctlBuilds)
	fmt.Fprintf(out, "  ctl_days_per_s   %.4f days/s (%d controlled days)\n", median(rates), ctlEnd-ctlStart+1)
	fmt.Fprintf(out, "  ctl_refresh_s    %.4f s\n", median(refreshes))
	fmt.Fprintf(out, "  control.Run wall %.4f s\n", median(walls))
	oc.metrics = map[string]float64{
		"setup_s":     median(setups),
		"p50_ms":      1000 * median(refreshes),
		"side_p50_ms": median(outside),
		"rate_per_s":  median(rates),
	}
	return oc, nil
}

// traceController reports the per-layer metrics of the controller:
// engine stage totals from the instrumented run, and replays of each
// refresh and control-day layer through its public functions.
func traceController(oc *outcome, o runOpts, src dataset.Source, ecfg engine.Config, plain, traced *ctlRun,
	stages *engine.StageReport, ts *timedSource, dir string, out io.Writer) error {
	tr := newTracer()
	m := make(map[string]float64)
	var stageSum float64
	fmt.Fprintf(out, "per-layer (traced run):\n")
	for _, t := range stages.Totals() {
		m["engine.stage."+t.Stage+"_s"] = t.Duration.Seconds()
		m["engine.stage."+t.Stage+"_rows"] = float64(t.Rows)
		stageSum += t.Duration.Seconds()
		fmt.Fprintf(out, "  engine stage %-10s %d runs, %.4f s, %d rows\n", t.Stage, t.Count, t.Duration.Seconds(), t.Rows)
	}
	m["dataset.series_ms"] = ts.ms()
	m["dataset.series_calls"] = float64(ts.calls.Load())
	m["trace.overhead_pct"] = 100 * (traced.wall - plain.wall).Seconds() / plain.wall.Seconds()

	// The refresh's selection frame, ranked by each default ranker.
	trainHi := ctlEnd - ctlCanary
	pd, err := engine.New(src, ecfg).PreparePhase(smart.MC2, engine.Phase{TrainLo: 0, TrainHi: trainHi, TestLo: trainHi + 1, TestHi: trainHi + 1})
	if err != nil {
		return err
	}
	fr := pd.SelFrame
	fmt.Fprintf(out, "  refresh selection frame: %d rows x %d features\n", fr.NumRows(), fr.NumFeatures())
	var req int64
	for _, spec := range selection.DefaultSpecs() {
		rk, err := selection.Resolve(spec, ecfg.Seed, ecfg.SplitMethod)
		if err != nil {
			return err
		}
		req++
		d := tr.timed("selection.rank."+spec, 0, req, func(int64) { _, err = rk.Rank(fr) })
		if err != nil {
			return fmt.Errorf("rank %s: %w", spec, err)
		}
		m["selection.rank_s."+spec] = d.Seconds()
	}
	cols := make([][]float64, fr.NumFeatures())
	for i := range cols {
		cols[i] = fr.Col(i)
	}
	req++
	d := tr.timed("complexity.cutoff", 0, req, func(int64) {
		var f []float64
		if f, err = complexity.FeatureComplexities(cols, fr.Labels()); err == nil {
			_, err = complexity.AutoCutoff(f, complexity.DefaultCutoffConfig())
		}
	})
	if err != nil {
		return err
	}
	m["complexity.cutoff_ms"] = 1000 * d.Seconds()

	// Control days replayed on the bootstrap snapshot: append the day,
	// score the fleet on it, run the detector on the summary window.
	reg := &core.Registry{Dir: filepath.Join(traced.dir, "registry")}
	snap, err := engine.LoadSnapshot(reg, control.DefaultArtifact, 1)
	if err != nil {
		return err
	}
	scorer, err := engine.NewScorer(snap, ecfg.Workers)
	if err != nil {
		return err
	}
	st := store.Open(src, store.Options{})
	defer st.Close()
	if err := st.Track(smart.MC2); err != nil {
		return err
	}
	if err := st.AppendThrough(ctlStart - 1); err != nil {
		return err
	}
	var buf engine.ScoreBuf
	var window []float64
	var dayDurs []time.Duration
	for day := ctlStart; day <= ctlEnd; day++ {
		req++
		d := tr.timed("control.day", 0, req, func(root int64) {
			tr.timed("store.append", root, req, func(int64) { err = st.AppendThrough(day) })
			if err != nil {
				return
			}
			var outs []engine.DriveOutcome
			tr.timed("engine.score_fleet", root, req, func(int64) { outs, err = scorer.ScoreInto(st.Snapshot(), day, day, &buf) })
			if err != nil {
				return
			}
			var total float64
			for _, o := range outs {
				total += min(max(o.MaxProb, 0), 1)
			}
			window = append(window, total/float64(max(len(outs), 1)))
			if len(window) >= 3 {
				tr.timed("changepoint.detect", root, req, func(int64) {
					_, err = changepoint.Detect(window, changepoint.DefaultConfig(), changepoint.DefaultZThreshold)
				})
			}
		})
		if err != nil {
			return err
		}
		dayDurs = append(dayDurs, d)
	}

	// Journal appends (each synced) and snapshot saves.
	j, _, err := runlog.Open(filepath.Join(dir, "bench.journal"))
	if err != nil {
		return err
	}
	for i := 0; i < 50; i++ {
		req++
		tr.timed("runlog.append", 0, req, func(int64) { err = j.Append("bench", map[string]int{"day": i}) })
		if err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	saveReg := &core.Registry{Dir: filepath.Join(dir, "save-bench")}
	for i := 0; i < 5; i++ {
		req++
		tr.timed("core.save", 0, req, func(int64) { _, err = engine.SaveSnapshot(saveReg, "bench", snap) })
		if err != nil {
			return err
		}
	}

	self := selfTimes(tr.snapshot())
	ms, us := time.Millisecond, time.Microsecond
	m["control.day_ms"] = medianDur(dayDurs, ms)
	m["store.append_ms"] = layerMedian(self, "store.append", ms)
	m["engine.score_fleet_ms"] = layerMedian(self, "engine.score_fleet", ms)
	m["changepoint.detect_ms"] = layerMedian(self, "changepoint.detect", ms)
	m["runlog.append_us"] = layerMedian(self, "runlog.append", us)
	m["core.save_ms"] = layerMedian(self, "core.save", ms)
	c := st.Counters()
	m["store.fetches"] = float64(c.SeriesFetches)
	m["store.retries"] = float64(c.FetchRetries)

	// Layer sum of the traced control.Run: engine stages (bootstrap and
	// candidate), one replayed control day per controlled day, one
	// journal append per day plus the cycle's records, and two saves.
	days := ctlEnd - ctlStart + 1
	e2e := traced.wall.Seconds() * 1000
	parts := []struct {
		name string
		ms   float64
	}{
		{"engine stages", stageSum * 1000},
		{fmt.Sprintf("%d control days", days), float64(days) * m["control.day_ms"]},
		{"journal appends", float64(days+6) * m["runlog.append_us"] / 1000},
		{"snapshot saves", 2 * m["core.save_ms"]},
	}
	var sum float64
	for _, p := range parts {
		sum += p.ms
	}
	m["layersum.e2e_ms"] = e2e
	m["layersum.sum_ms"] = sum
	m["layersum.remainder_pct"] = 100 * (e2e - sum) / e2e
	fmt.Fprintf(out, "  layer sum of the traced control.Run (base: its wall time, %.1f ms):\n", e2e)
	for _, p := range parts {
		fmt.Fprintf(out, "    %-24s %.1f ms (%.1f%%)\n", p.name, p.ms, 100*p.ms/e2e)
	}
	fmt.Fprintf(out, "    sum of layers            %.1f ms; unexplained remainder %.1f ms = %.1f%% of %.1f ms (canary scoring, selection bookkeeping)\n",
		sum, e2e-sum, m["layersum.remainder_pct"], e2e)
	fmt.Fprintf(out, "  tracing overhead: %.2f%% (instrumented control.Run %.3f s vs plain %.3f s)\n",
		m["trace.overhead_pct"], traced.wall.Seconds(), plain.wall.Seconds())
	printLayers(out, m)

	path := filepath.Join(o.work, fmt.Sprintf("trace-%s-%d.jsonl", ctlWorkload, o.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "  %d spans written to %s\n", len(tr.snapshot()), path)
	oc.metrics = m
	return nil
}
