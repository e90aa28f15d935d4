package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/store"
)

// The daemon's simulated MC1 fleet and bootstrap model. Sized so one
// boot (simulate, ingest, WEFR selection, forest training) takes a few
// seconds; the snapshot still splits the fleet into wear groups. The
// daemon is the system under test, so its fleet and model are fixed
// (serveSystemSeed); the workload seed draws the requests: which
// drive-days, which drives, and when.
const (
	serveSystemSeed = 1
	serveDrives     = 500
	serveDays       = 150
	serveAFR        = 3
	serveTrees      = 10
	serveDepth      = 8
	serveBoots      = 3 // set-up is timed this many times; the last daemon serves the run
	ingestDays      = 24
	batchDrives     = 64
	artifact        = "serving"
)

// The load plan of a serving run. An overload window comes first, then
// the reference rung, which carries the reported latencies, a second
// overload window, the knee ladder, and a third overload window. The
// knee ladder climbs in small geometric steps from ladderLo past the
// knee (800-1000 req/s on 2 connections) and stops after the first rung
// that fails. An overload window offers far more than the daemon can
// take and measures its goodput; spreading three over the run and
// taking their median keeps a passing stall of the host from setting
// the figure. Durations are shares of the measured seconds.
const (
	refRate         = 200.0 // req/s
	refShare        = 0.3
	ladderLo        = 400.0 // req/s
	ladderStep      = 1.15
	ladderRungs     = 11 // 400 .. 1618 req/s
	rungShare       = 0.045
	overloadRate    = 4000.0 // req/s
	overloadWindows = 3
	overloadShare   = 0.2 // all windows together
	// A rung's single-path tail limit, in multiples of the unloaded
	// single tail measured at the start of the run.
	limitFactor = 20
	unloadedN   = 200 // sequential single requests of the unloaded probe
)

// kneeRates returns the offered rates of the knee ladder, ascending.
func kneeRates() []float64 {
	var rates []float64
	r := ladderLo
	for i := 0; i < ladderRungs; i++ {
		rates = append(rates, math.Round(r))
		r *= ladderStep
	}
	return rates
}

// serveSpec is one serving workload: its request mix.
type serveSpec struct {
	name  string
	store bool // store-backed requests by drive ID, else inline series
	mix   [numKinds]float64
}

var (
	serveInline = serveSpec{
		name: "serve-inline",
		mix:  [numKinds]float64{kSingle: 0.9, kBatch: 0.1},
	}
	serveStore = serveSpec{
		name:  "serve-store",
		store: true,
		mix:   [numKinds]float64{kSingle: 0.95, kFleet: 0.05},
	}
)

// driveDay identifies one scored drive-day.
type driveDay struct{ Drive, Day int }

// input is one request body with what it asks to score.
type input struct {
	body  []byte
	days  []driveDay // inline: the drive-days whose windows the body carries
	drive int        // store-backed single: the drive ID
	day   int        // fleet and ingest: the day
	group int        // inline single: the wear group the oracle routes it to
}

// serveEnv is everything one serving run shares across its phases.
type serveEnv struct {
	sp      serveSpec
	rng     *rand.Rand
	src     dataset.Source
	d       *daemon
	scorer  *engine.Scorer
	chk     *checker
	pool    [numKinds][]input
	gen     *generator
	h0      int // store horizon at boot
	ingestN int // ingest requests scheduled so far
	groups  map[int]int
}

// ladderRun is what the ladder measured.
type ladderRun struct {
	limitMs   float64      // single tail limit of every rung
	rungs     []rungResult // the reference rung first, then the knee ladder
	pass      []bool
	deltas    []statDelta
	refJobs   []job
	overload  []float64 // goodput of each overload window, req/s
	all       statDelta // daemon counter deltas over every rung
	attempted int
	failed    int
	ingest    []float64 // ingest latencies, ms
}

func runServe(o runOpts, sp serveSpec, out io.Writer) (*outcome, error) {
	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d", sp.name, o.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	e := &serveEnv{sp: sp, rng: rand.New(rand.NewSource(o.seed)), groups: make(map[int]int)}
	fleet, err := simulate.New(simulate.Config{
		TotalDrives: serveDrives, Days: serveDays, Seed: serveSystemSeed, AFRScale: serveAFR,
		Models: []smart.ModelID{smart.MC1},
	})
	if err != nil {
		return nil, err
	}
	e.src = dataset.FleetSource{Fleet: fleet}
	e.h0 = serveDays - 1
	args := []string{
		"-model", "MC1", "-drives", strconv.Itoa(serveDrives), "-days", strconv.Itoa(serveDays),
		"-seed", strconv.Itoa(serveSystemSeed), "-afr-scale", strconv.Itoa(serveAFR),
		"-trees", strconv.Itoa(serveTrees), "-depth", strconv.Itoa(serveDepth), "-bootstrap",
	}
	if sp.store {
		e.h0 = serveDays - 1 - ingestDays
		args = append(args, "-ingest-through", strconv.Itoa(e.h0))
	}

	// Set-up: exec to the first /readyz 200, bootstrapping a fresh
	// registry each time.
	procs := runtime.NumCPU()
	var setups []float64
	var reg string
	for i := 0; i < serveBoots; i++ {
		reg = filepath.Join(dir, fmt.Sprintf("registry-%d", i))
		d, err := startDaemon(o.serveBin, procs, append([]string{"-dir", reg}, args...)...)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
		if i < serveBoots-1 {
			d.stop()
		} else {
			e.d = d
		}
	}
	defer e.d.stop()
	fmt.Fprintf(out, "%s seed %d: setup runs %.4f s\n", sp.name, o.seed, setups)

	snap, err := engine.LoadSnapshot(&core.Registry{Dir: reg}, artifact, 0)
	if err != nil {
		return nil, err
	}
	if e.scorer, err = engine.NewScorer(snap, 1); err != nil {
		return nil, err
	}
	ost := store.Open(e.src, store.Options{Workers: 1})
	defer ost.Close()
	if err := ost.Track(smart.MC1); err != nil {
		return nil, err
	}
	if err := ost.AppendThrough(serveDays - 1); err != nil {
		return nil, err
	}
	e.chk = newChecker(newOracle(e.scorer, ost.Snapshot()))
	if err := e.buildPools(snap.TrainedThrough + 1); err != nil {
		return nil, err
	}

	e.gen = newGenerator(e.d.base, procs)
	defer e.gen.close()
	fmt.Fprintf(out, "generator: GOMAXPROCS %d, %d connections, open-loop Poisson arrivals; daemon: GOMAXPROCS %d\n",
		runtime.GOMAXPROCS(0), len(e.gen.clients), e.d.procs)

	// Let caches fill and lazy set-up finish at the reference rate.
	warm := e.schedule(refRate, time.Second)
	replies := e.gen.run(warm, 0)
	if r := summarize(0, time.Second, warm, replies); r.failed() > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", r.failed(), r.sent())
	}
	if bad := e.check(warm, replies); bad > 0 {
		return nil, fmt.Errorf("warm-up: %d mismatches: %v", bad, e.chk.notes)
	}

	rtt, singles, err := e.unloaded(unloadedN)
	if err != nil {
		return nil, err
	}
	ut := tail(singles)
	fmt.Fprintf(out, "unloaded (1 connection, %d sequential): /healthz %.4f ms; single p50 %.4f ms, tail %s\n",
		unloadedN, rtt, percentile(singles, 0.5), ut)
	var tr *tracer
	if o.trace {
		tr = newTracer()
		e.gen.tr = tr
	}
	lr, err := e.ladder(time.Duration(o.seconds)*time.Second, limitFactor*ut.Value, out)
	if err != nil {
		return nil, err
	}
	oc := e.report(lr, median(setups), out)
	if !o.trace {
		return oc, nil
	}
	return oc, e.traceLayers(oc, tr, lr, rtt, percentile(singles, 0.5), reg, out, o.work, o.seed)
}

// ladder runs the load plan: overload, reference rung, overload, the
// knee ladder until its first failing rung, overload.
func (e *serveEnv) ladder(total time.Duration, limitMs float64, out io.Writer) (*ladderRun, error) {
	lr := &ladderRun{limitMs: limitMs}
	if err := e.overloadWindow(lr, total, out); err != nil {
		return nil, err
	}
	if err := e.fixedRung(lr, refRate, time.Duration(refShare*float64(total)), out); err != nil {
		return nil, err
	}
	if err := e.overloadWindow(lr, total, out); err != nil {
		return nil, err
	}
	for _, rate := range kneeRates() {
		if !lr.pass[len(lr.pass)-1] {
			break
		}
		if err := e.fixedRung(lr, rate, time.Duration(rungShare*float64(total)), out); err != nil {
			return nil, err
		}
	}
	if err := e.overloadWindow(lr, total, out); err != nil {
		return nil, err
	}
	return lr, nil
}

// fixedRung runs one rung of the ladder at a fixed offered rate. The
// first rung, the reference, carries the store workload's ingests.
func (e *serveEnv) fixedRung(lr *ladderRun, rate float64, dur time.Duration, out io.Writer) error {
	jobs := e.schedule(rate, dur)
	if len(lr.rungs) == 0 {
		if e.sp.store {
			jobs = e.addIngests(jobs, dur/(ingestDays+1), dur)
		}
		lr.refJobs = jobs
	}
	r, dl, bad, err := e.rung(lr, rate, dur, 0, jobs)
	if err != nil {
		return err
	}
	pass := r.passes(lr.limitMs) && bad == 0
	lr.ingest = append(lr.ingest, r.Paths[kIngest].Lat...)
	lr.rungs = append(lr.rungs, r)
	lr.deltas = append(lr.deltas, dl)
	lr.pass = append(lr.pass, pass)
	verdict := "pass"
	if !pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(out, "rung %.0f req/s for %v: %s (single tail limit %.2f ms); %s", rate, dur, verdict, lr.limitMs, r.describe())
	fmt.Fprintf(out, "  daemon /v1/stats delta: %s\n", dl)
	return nil
}

// overloadWindow runs one overload window: its schedule is due far
// faster than it can be served, so both connections send back to back
// until the window's time is up.
func (e *serveEnv) overloadWindow(lr *ladderRun, total time.Duration, out io.Writer) error {
	dur := time.Duration(overloadShare / overloadWindows * float64(total))
	r, dl, _, err := e.rung(lr, overloadRate, dur, dur, e.schedule(overloadRate, dur))
	if err != nil {
		return err
	}
	lr.overload = append(lr.overload, r.Achieved)
	fmt.Fprintf(out, "overload window %d, %.0f req/s offered, sends cut after %v: goodput %s", len(lr.overload), overloadRate, dur, r.describe())
	fmt.Fprintf(out, "  daemon /v1/stats delta: %s\n", dl)
	return nil
}

// rung sends one schedule, checks every accepted response and folds
// the counts into lr. It returns the rung's statistics, the daemon's
// counter deltas and the number of mismatches.
func (e *serveEnv) rung(lr *ladderRun, rate float64, dur, cut time.Duration, jobs []job) (rungResult, statDelta, int, error) {
	before, err := e.stats()
	if err != nil {
		return rungResult{}, statDelta{}, 0, err
	}
	replies := e.gen.run(jobs, cut)
	after, err := e.stats()
	if err != nil {
		return rungResult{}, statDelta{}, 0, err
	}
	r := summarize(rate, dur, jobs, replies)
	bad := e.check(jobs, replies)
	lr.attempted += r.sent()
	lr.failed += r.failed() + bad
	if !r.healthy() {
		return r, statDelta{}, bad, fmt.Errorf("invalid run: the generator lagged on rung %.0f req/s (p50 %v, max %v; bounds %v, %v)",
			rate, r.LagP50, r.LagMax, maxLagP50, maxLagMax)
	}
	dl := delta(before, after)
	lr.all.add(dl)
	return r, dl, bad, nil
}

// sideKind is the workload's secondary path.
func (e *serveEnv) sideKind() kind {
	if e.sp.store {
		return kFleet
	}
	return kBatch
}

// report prints the end-to-end metrics and returns the run's outcome.
func (e *serveEnv) report(lr *ladderRun, setup float64, out io.Writer) *outcome {
	ref := lr.rungs[0]
	side := e.sideKind()
	// A daemon too slow for even the reference rung reads slo_qps 0.
	best := sloRung(lr.pass)
	slo, sloAt := 0.0, 0.0
	if best >= 0 {
		slo, sloAt = lr.rungs[best].Achieved, lr.rungs[best].Rate
	}
	goodput := median(lr.overload)
	oc := &outcome{attempted: lr.attempted, failed: lr.failed, correct: e.chk.bad == 0}
	if e.chk.bad > 0 {
		fmt.Fprintf(out, "CORRECTNESS FAILED: %d of %d responses differ from offline scoring: %v\n", e.chk.bad, e.chk.checked, e.chk.notes)
	} else {
		fmt.Fprintf(out, "correctness: %d responses equal offline engine.Scorer results bit for bit\n", e.chk.checked)
	}
	e.printGroups(out)

	single, sideP := ref.Paths[kSingle], ref.Paths[side]
	fmt.Fprintf(out, "end-to-end (latencies at the reference rung, %.0f req/s offered):\n", ref.Rate)
	fmt.Fprintf(out, "  setup_s          %.4f s\n", setup)
	fmt.Fprintf(out, "  single_p50_ms    %.4f ms\n", percentile(single.Lat, 0.5))
	fmt.Fprintf(out, "  single_tail_ms   %s\n", tail(single.Lat))
	fmt.Fprintf(out, "  %-16s %.4f ms\n", kindName[side]+"_p50_ms", percentile(sideP.Lat, 0.5))
	fmt.Fprintf(out, "  %-16s %s\n", kindName[side]+"_tail_ms", tail(sideP.Lat))
	if e.sp.store {
		ing := append([]float64(nil), lr.ingest...)
		sort.Float64s(ing)
		fmt.Fprintf(out, "  ingest_p50_ms    %.4f ms (n=%d)\n", percentile(ing, 0.5), len(ing))
	}
	fmt.Fprintf(out, "  slo_qps          %.2f req/s achieved at rung %.0f req/s, the highest of %d run (single tail limit %.2f ms = %d x unloaded tail)\n",
		slo, sloAt, len(lr.rungs), lr.limitMs, limitFactor)
	fmt.Fprintf(out, "  goodput_qps      %.2f req/s accepted, median of %d overload windows %.2f\n", goodput, len(lr.overload), lr.overload)
	fmt.Fprintf(out, "  error_rate       %s (non-2xx, transport and mismatch over attempted, all paths and rungs)\n", ratio{float64(lr.failed), float64(lr.attempted)})

	oc.metrics = map[string]float64{
		"setup_s":     setup,
		"p50_ms":      percentile(single.Lat, 0.5),
		"side_p50_ms": percentile(sideP.Lat, 0.5),
		"rate_per_s":  goodput,
	}
	return oc
}

// buildPools makes the request bodies. Inline windows are cut from the
// simulated fleet's own histories, drive-days drawn uniformly from the
// days after training, so wear groups get traffic in fleet proportion
// and the series carry the fleet's sparse error counters.
func (e *serveEnv) buildPools(testLo int) error {
	if e.sp.store {
		for _, ref := range e.src.DrivesOf(smart.MC1) {
			body, err := json.Marshal(serve.ScoreRequest{Model: artifact, DriveID: &ref.ID})
			if err != nil {
				return err
			}
			e.pool[kSingle] = append(e.pool[kSingle], input{body: body, drive: ref.ID})
		}
		for d := e.h0 - 9; d <= e.h0; d++ {
			body, err := json.Marshal(serve.FleetRequest{Model: artifact, Day: d})
			if err != nil {
				return err
			}
			e.pool[kFleet] = append(e.pool[kFleet], input{body: body, day: d})
		}
		return nil
	}
	cut := newCutter(e.src, e.scorer.MaxWindow(), testLo, serveDays-1)
	for i := 0; i < 512; i++ {
		dd, series, err := cut.draw(e.rng)
		if err != nil {
			return err
		}
		mwi := series[engine.MWIFeature.String()][e.scorer.MaxWindow()]
		body, err := json.Marshal(serve.ScoreRequest{Model: artifact, Series: series})
		if err != nil {
			return fmt.Errorf("encode drive %d day %d: %w", dd.Drive, dd.Day, err)
		}
		e.pool[kSingle] = append(e.pool[kSingle], input{body: body, days: []driveDay{dd}, group: e.scorer.PickGroup(mwi)})
	}
	for i := 0; i < 16; i++ {
		var req serve.BatchRequest
		var days []driveDay
		req.Model = artifact
		for j := 0; j < batchDrives; j++ {
			dd, series, err := cut.draw(e.rng)
			if err != nil {
				return err
			}
			req.Drives = append(req.Drives, serve.BatchDrive{Series: series})
			days = append(days, dd)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		e.pool[kBatch] = append(e.pool[kBatch], input{body: body, days: days})
	}
	return nil
}

// cutter draws inline telemetry windows from simulated drive histories.
type cutter struct {
	src    *dataset.CachedSource
	drives []dataset.DriveRef
	window int // history days before the scored day
	lo, hi int // scored-day range
}

func newCutter(src dataset.Source, window, lo, hi int) *cutter {
	return &cutter{src: dataset.NewCachedSource(src), drives: src.DrivesOf(smart.MC1), window: window, lo: max(lo, window), hi: hi}
}

// draw picks a drive-day uniformly among the observed ones in [lo, hi]
// and returns its window: window days of history plus the scored day.
func (c *cutter) draw(rng *rand.Rand) (driveDay, map[string][]float64, error) {
	for {
		ref := c.drives[rng.Intn(len(c.drives))]
		day := c.lo + rng.Intn(c.hi-c.lo+1)
		cols, last, err := c.src.Series(ref)
		if err != nil {
			return driveDay{}, nil, err
		}
		if day > last {
			continue
		}
		series := make(map[string][]float64, len(cols))
		for ft, col := range cols {
			series[ft.String()] = col[day-c.window : day+1]
		}
		return driveDay{Drive: ref.ID, Day: day}, series, nil
	}
}

// schedule draws a Poisson schedule over the workload's mix and gives
// each job a body from its path's pool.
func (e *serveEnv) schedule(rate float64, dur time.Duration) []job {
	jobs := poisson(e.rng, rate, dur, e.sp.mix)
	for i := range jobs {
		p := e.pool[jobs[i].kind]
		jobs[i].tag = e.rng.Intn(len(p))
		jobs[i].body = p[jobs[i].tag].body
	}
	return jobs
}

// addIngests admits the next upstream day at a fixed cadence, until
// the tail left out at boot is used up.
func (e *serveEnv) addIngests(jobs []job, interval, dur time.Duration) []job {
	for t := interval; t < dur && e.ingestN < ingestDays; t += interval {
		e.ingestN++
		day := e.h0 + e.ingestN
		body, _ := json.Marshal(serve.IngestRequest{Day: day}) // a struct of one int always encodes
		e.pool[kIngest] = append(e.pool[kIngest], input{body: body, day: day})
		jobs = append(jobs, job{due: t, kind: kIngest, tag: len(e.pool[kIngest]) - 1, body: body})
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].due < jobs[b].due })
	return jobs
}

// check compares every accepted response with the oracle and returns
// the number of mismatches.
func (e *serveEnv) check(jobs []job, replies []reply) int {
	bad := e.chk.bad
	for i, rep := range replies {
		if !rep.ok() {
			continue
		}
		in := e.pool[jobs[i].kind][jobs[i].tag]
		switch jobs[i].kind {
		case kSingle:
			var r serve.ScoreResponse
			if err := json.Unmarshal(rep.body, &r); err != nil {
				e.chk.fail("single response: %v", err)
				continue
			}
			e.groups[r.Group]++
			if e.sp.store {
				if r.DriveID != in.drive {
					e.chk.fail("asked drive %d, scored drive %d", in.drive, r.DriveID)
					continue
				}
				e.chk.score(r, r.DriveID, r.Day)
			} else {
				e.chk.score(r, in.days[0].Drive, in.days[0].Day)
			}
		case kBatch:
			var r serve.BatchResponse
			if err := json.Unmarshal(rep.body, &r); err != nil || len(r.Results) != len(in.days) {
				e.chk.fail("batch response: %d results for %d drives, %v", len(r.Results), len(in.days), err)
				continue
			}
			for j, res := range r.Results {
				e.groups[res.Group]++
				e.chk.score(res, in.days[j].Drive, in.days[j].Day)
			}
		case kFleet:
			var r serve.FleetResponse
			if err := json.Unmarshal(rep.body, &r); err != nil || r.Day != in.day {
				e.chk.fail("fleet response for day %d: day %d, %v", in.day, r.Day, err)
				continue
			}
			e.chk.fleetPass(r)
		case kIngest:
			var r serve.IngestResponse
			if err := json.Unmarshal(rep.body, &r); err != nil || r.Horizon < in.day {
				e.chk.fail("ingest of day %d: horizon %d, %v", in.day, r.Horizon, err)
			}
		}
	}
	return e.chk.bad - bad
}

// unloaded measures, on one connection with nothing queued, the
// /healthz round trip (median, ms) and n single scores (ascending ms).
func (e *serveEnv) unloaded(n int) (rtt float64, singles []float64, err error) {
	var hs, ss []time.Duration
	var jobs []job
	var replies []reply
	for i := 0; i < n; i++ {
		start := time.Now()
		code, _, err := e.gen.get("/healthz")
		if err != nil || code != 200 {
			return 0, nil, fmt.Errorf("healthz: %d %v", code, err)
		}
		hs = append(hs, time.Since(start))
		j := job{kind: kSingle, tag: i % len(e.pool[kSingle])}
		j.body = e.pool[kSingle][j.tag].body
		start = time.Now()
		code, body := e.gen.post(e.gen.clients[0], kindPath[kSingle], j.body)
		ss = append(ss, time.Since(start))
		if code != 200 {
			return 0, nil, fmt.Errorf("unloaded single: status %d %s", code, body)
		}
		jobs = append(jobs, j)
		replies = append(replies, reply{sent: true, status: code, body: body})
	}
	if bad := e.check(jobs, replies); bad > 0 {
		return 0, nil, fmt.Errorf("unloaded singles: %d mismatches: %v", bad, e.chk.notes)
	}
	return medianDur(hs, time.Millisecond), sortedMs(ss), nil
}

func (e *serveEnv) stats() (serve.Stats, error) {
	var st serve.Stats
	code, body, err := e.gen.get("/v1/stats")
	if err != nil || code != 200 {
		return st, fmt.Errorf("stats: %d %v", code, err)
	}
	return st, json.Unmarshal(body, &st)
}

// printGroups prints scored drive-days per wear group beside the share
// the inline pool was drawn with.
func (e *serveEnv) printGroups(out io.Writer) {
	var total int
	for _, n := range e.groups {
		total += n
	}
	fmt.Fprintf(out, "scored drive-days per wear group:")
	for g := 0; g < e.scorer.NumGroups(); g++ {
		var bounds []string
		below, atLeast := e.scorer.GroupMWIBounds(g)
		if atLeast > 0 {
			bounds = append(bounds, fmt.Sprintf("MWI >= %g", atLeast))
		}
		if below > 0 {
			bounds = append(bounds, fmt.Sprintf("MWI < %g", below))
		}
		fmt.Fprintf(out, " group %d (%s): %d (%.1f%%)", g, strings.Join(bounds, ", "), e.groups[g], 100*ratio{float64(e.groups[g]), float64(total)}.Value())
	}
	if !e.sp.store {
		pool := make(map[int]int)
		for _, in := range e.pool[kSingle] {
			pool[in.group]++
		}
		fmt.Fprintf(out, "; single pool by group: %v of %d", pool, len(e.pool[kSingle]))
	}
	fmt.Fprintln(out)
}

// statDelta is the change in the daemon's counters over one rung.
type statDelta struct {
	Requests, Coalesced, Flushes, AgeFlushes, Shed, Deadline, Errors int64
}

func delta(a, b serve.Stats) statDelta {
	return statDelta{
		Requests:   b.Requests - a.Requests,
		Coalesced:  b.Coalesced - a.Coalesced,
		Flushes:    b.Flushes - a.Flushes,
		AgeFlushes: b.AgeFlushes - a.AgeFlushes,
		Shed:       b.Shed - a.Shed,
		Deadline:   b.DeadlineExceeded - a.DeadlineExceeded,
		Errors:     b.Errors - a.Errors,
	}
}

func (d *statDelta) add(o statDelta) {
	d.Requests += o.Requests
	d.Coalesced += o.Coalesced
	d.Flushes += o.Flushes
	d.AgeFlushes += o.AgeFlushes
	d.Shed += o.Shed
	d.Deadline += o.Deadline
	d.Errors += o.Errors
}

func (d statDelta) rowsPerFlush() ratio { return ratio{float64(d.Coalesced), float64(d.Flushes)} }
func (d statDelta) ageFlushFrac() ratio { return ratio{float64(d.AgeFlushes), float64(d.Flushes)} }

func (d statDelta) String() string {
	return fmt.Sprintf("requests %d; rows/flush %s; age-triggered flush share %s; shed %d; deadline_exceeded %d; errors %d",
		d.Requests, d.rowsPerFlush(), d.ageFlushFrac(), d.Shed, d.Deadline, d.Errors)
}
