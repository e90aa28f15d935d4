// Command bench runs the repository's hot-path performance benchmarks
// programmatically and records the results as a JSON report, so the
// performance trajectory is tracked in-repo from PR to PR.
//
// Usage:
//
//	bench                          # run all benches, write BENCH_<date>.json
//	bench -out results.json        # explicit output path
//	bench -baseline BENCH_old.json # embed a prior run and report speedups
//	bench -bench forest-fit        # run a single benchmark
//	bench -quick                   # one iteration per bench (CI smoke)
//
// Benchmarks cover the training hot loop (forest-fit, gbdt-fit; both
// grow trees by histogram-binned split search, and hist-bin times the
// binning they start with on a training-frame-sized matrix), batch
// scoring (forest-predict-batch), the simulator's series generation
// (series-gen, series-gen-batch), million-drive daily scoring through
// the compiled flat kernel over a disk-spilled columnar fleet
// (fleet-score; size it with -fleet-drives, default 1,000,000 or
// 50,000 under -quick), one warm store-backed Scorer.ScoreInto day
// over a 500-drive MC1 fleet with a two-group WEFR snapshot
// (scorer-fleet-pass: the one window scorer behind a phase's
// calibration and test scoring, the serving daemon's fleet endpoint
// and the controller's daily summary), and the
// ranker-evaluation harness (rank-eval: internal/rankeval over every
// registered ranker plus the WEFR ensemble on a small fleet). These
// are in-process micro-benchmarks; the serving daemon's end-to-end
// latency and throughput under load are measured out of process by
// perfbench (bash perfbench/run.sh).
//
// After a run, the report is diffed against the most recent prior
// BENCH_<date>[.N].json in the working directory (by the date and run
// number in its name) and a per-benchmark delta table is printed,
// flagging any benchmark whose ns/op or allocs/op regressed by more
// than 10%.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/flat"
	"repro/internal/forest"
	"repro/internal/frame"
	"repro/internal/gbdt"
	"repro/internal/hist"
	"repro/internal/pipeline"
	"repro/internal/rankeval"
	"repro/internal/serve"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/store"
	"repro/internal/survival"
	"repro/internal/textplot"
)

// Result is one benchmark's measurement.
type Result struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
	Speedup     float64 `json:"speedup_vs_baseline,omitempty"`
	// Extra carries benchmark-specific metrics reported via
	// b.ReportMetric (e.g. fleet-score's "drives/sec").
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the BENCH_<date>.json layout.
type Report struct {
	Date       string            `json:"date"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Benchmarks map[string]Result `json:"benchmarks"`
	// Baseline carries the prior run this report is compared against
	// (the pre-optimization numbers), when -baseline is given.
	Baseline map[string]Result `json:"baseline,omitempty"`
}

func main() {
	// Register the testing flags (test.benchtime et al.) so -quick can
	// shorten the measurement loop through the standard mechanism.
	testing.Init()
	var (
		out      = flag.String("out", "", "output path (default BENCH_<date>.json, suffixed to avoid clobbering)")
		baseline = flag.String("baseline", "", "prior report to embed and compare against")
		only     = flag.String("bench", "", "run only the named benchmark")
		quick    = flag.Bool("quick", false, "run each benchmark for a single iteration (CI smoke test; numbers are noisy)")
		fleetN   = flag.Int("fleet-drives", 0, "fleet-score fleet size (default 1000000, or 50000 with -quick)")
	)
	flag.Parse()
	if *quick {
		if err := flag.Set("test.benchtime", "1x"); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	switch {
	case *fleetN > 0:
		fleetDrives = *fleetN
	case *quick:
		fleetDrives = 50_000
	default:
		fleetDrives = 1_000_000
	}

	if err := run(*out, *baseline, *only); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run(out, baselinePath, only string) error {
	defer runCleanups()
	rep := Report{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: map[string]Result{},
	}
	if baselinePath != "" {
		prior, err := readReport(baselinePath)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		rep.Baseline = prior.Benchmarks
	}

	for _, bm := range benches {
		if only != "" && bm.name != only {
			continue
		}
		fmt.Printf("%-22s ", bm.name)
		r := testing.Benchmark(bm.fn)
		res := Result{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		}
		if len(r.Extra) > 0 {
			res.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Extra[k] = v
			}
		}
		if base, ok := rep.Baseline[bm.name]; ok && res.NsPerOp > 0 {
			res.Speedup = float64(base.NsPerOp) / float64(res.NsPerOp)
		}
		rep.Benchmarks[bm.name] = res
		fmt.Printf("%12d ns/op %10d B/op %8d allocs/op", res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		if v, ok := res.Extra["drives/sec"]; ok {
			fmt.Printf("   %.0f drives/sec", v)
		}
		if res.Speedup > 0 {
			fmt.Printf("   %.2fx vs baseline", res.Speedup)
		}
		fmt.Println()
	}
	if len(rep.Benchmarks) == 0 {
		names := make([]string, len(benches))
		for i, bm := range benches {
			names[i] = bm.name
		}
		return fmt.Errorf("no benchmark named %q (have: %s)", only, strings.Join(names, ", "))
	}

	if out == "" {
		out = freshOutPath(rep.Date)
	}
	prior, path, err := latestPriorReport(".", out)
	switch {
	case err != nil:
		// A damaged prior report must not sink a benchmark run that
		// already finished measuring: warn, skip the delta, still write.
		fmt.Fprintf(os.Stderr, "bench: warning: skipping delta table: %v\n", err)
	case prior != nil:
		fmt.Printf("\ndelta vs %s:\n", path)
		fmt.Print(deltaTable(rep.Benchmarks, prior.Benchmarks))
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFileAtomic(out, append(data, '\n')); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// writeFileAtomic stages the data in a temp file and renames it into
// place, so a failed or interrupted run never leaves a partial report.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// CreateTemp makes 0600 files; match os.Create's permissions.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// freshOutPath picks the default output name, appending a numeric
// suffix when a same-day report already exists so prior runs are never
// clobbered.
func freshOutPath(date string) string {
	out := fmt.Sprintf("BENCH_%s.json", date)
	for n := 2; ; n++ {
		if _, err := os.Stat(out); os.IsNotExist(err) {
			return out
		}
		out = fmt.Sprintf("BENCH_%s.%d.json", date, n)
	}
}

// latestPriorReport loads the most recent BENCH_<date>[.N].json in dir,
// excluding the upcoming output path. Reports are ordered by the name
// (date, then run number, where no suffix is run 1), not by
// modification time: a fresh checkout gives every report the same
// mtime. A nil report (with nil error) means there is no prior run to
// diff against; an error names the unreadable or corrupt file so the
// caller can warn about it.
func latestPriorReport(dir, out string) (*Report, string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, "", err
	}
	best, bestDate, bestRun := "", "", 0
	for _, m := range matches {
		if filepath.Clean(m) == filepath.Clean(out) {
			continue
		}
		date, run := reportOrder(filepath.Base(m))
		if best == "" || date > bestDate || (date == bestDate && run > bestRun) {
			best, bestDate, bestRun = m, date, run
		}
	}
	if best == "" {
		return nil, "", nil
	}
	rep, err := readReport(best)
	if err != nil {
		return nil, "", fmt.Errorf("prior report %s: %w", best, err)
	}
	return &rep, best, nil
}

// reportOrder splits a BENCH_<date>[.N].json name into its date and run
// number; a name without a numeric suffix is run 1 of its date (the
// suffix freshOutPath appends starts at 2).
func reportOrder(name string) (date string, run int) {
	date = strings.TrimSuffix(strings.TrimPrefix(name, "BENCH_"), ".json")
	if i := strings.LastIndexByte(date, '.'); i >= 0 {
		if n, err := strconv.Atoi(date[i+1:]); err == nil && n > 0 {
			return date[:i], n
		}
	}
	return date, 1
}

// deltaTable renders the per-benchmark comparison against a prior
// report. A benchmark whose time or allocation count got more than 10%
// worse is flagged as a regression.
func deltaTable(cur, prior map[string]Result) string {
	var names []string
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows [][]string
	for _, name := range names {
		res := cur[name]
		base, ok := prior[name]
		if !ok || base.NsPerOp <= 0 {
			rows = append(rows, []string{name, "-", fmt.Sprintf("%d", res.NsPerOp), "-",
				"-", fmt.Sprintf("%d", res.AllocsPerOp), "-", "new"})
			continue
		}
		nsDelta := 100 * (float64(res.NsPerOp) - float64(base.NsPerOp)) / float64(base.NsPerOp)
		allocDelta := 0.0
		if base.AllocsPerOp > 0 {
			allocDelta = 100 * (float64(res.AllocsPerOp) - float64(base.AllocsPerOp)) / float64(base.AllocsPerOp)
		}
		note := ""
		if nsDelta > 10 || allocDelta > 10 {
			note = "REGRESSION"
		}
		rows = append(rows, []string{name,
			fmt.Sprintf("%d", base.NsPerOp), fmt.Sprintf("%d", res.NsPerOp), fmt.Sprintf("%+.1f%%", nsDelta),
			fmt.Sprintf("%d", base.AllocsPerOp), fmt.Sprintf("%d", res.AllocsPerOp), fmt.Sprintf("%+.1f%%", allocDelta),
			note})
	}
	return textplot.Table([]string{"Benchmark", "old ns/op", "new ns/op", "Δns", "old allocs", "new allocs", "Δallocs", ""}, rows)
}

func readReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	err = json.Unmarshal(data, &rep)
	return rep, err
}

// --- benchmark definitions ---

// bench is one named benchmark.
type bench struct {
	name string
	fn   func(b *testing.B)
}

var benches = []bench{
	{name: "forest-fit", fn: benchForestFit},
	{name: "forest-predict-batch", fn: benchForestPredictBatch},
	{name: "gbdt-fit", fn: benchGBDTFit},
	{name: "hist-bin", fn: benchHistBin},
	{name: "series-gen", fn: benchSeriesGen},
	{name: "series-gen-batch", fn: benchSeriesGenBatch},
	{name: "fleet-score", fn: benchFleetScore},
	{name: "scorer-fleet-pass", fn: benchScorerFleetPass},
	{name: "serve-batch-inline", fn: benchServeBatchInline},
	{name: "rank-eval", fn: benchRankEval},
	{name: "wefr-select", fn: benchWEFRSelect},
}

// cleanups are teardown hooks registered by benchmark setup (temp
// spill directories, open stores); run LIFO after the bench loop.
var cleanups []func()

func runCleanups() {
	for i := len(cleanups) - 1; i >= 0; i-- {
		cleanups[i]()
	}
	cleanups = nil
}

// synthData builds a deterministic frame-shaped dataset: one signal
// feature plus noise features, mimicking an expanded training frame.
func synthData(n, features int, seed int64) (cols [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	y = make([]int, n)
	signal := make([]float64, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.12 { // failure-frame-like class skew
			y[i] = 1
			signal[i] = 1.5 + rng.NormFloat64()
		} else {
			signal[i] = rng.NormFloat64()
		}
	}
	cols = make([][]float64, features)
	cols[0] = signal
	for f := 1; f < features; f++ {
		c := make([]float64, n)
		for i := range c {
			// Mix of continuous noise and low-cardinality counter-like
			// columns (heavy value ties, as in SMART data).
			if f%3 == 0 {
				c[i] = float64(rng.Intn(6))
			} else {
				c[i] = rng.NormFloat64() + 0.2*signal[i]
			}
		}
		cols[f] = c
	}
	return cols, y
}

// benchForestFit measures Random Forest training at bench scale
// (the dominant cost of Table III and Tables VI-VIII).
func benchForestFit(b *testing.B) {
	cols, y := synthData(4000, 60, 1)
	cfg := forest.Config{NumTrees: 30, MaxDepth: 12, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forest.Fit(cols, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchForestPredictBatch measures fleet-wide batch scoring with a
// fitted forest.
func benchForestPredictBatch(b *testing.B) {
	cols, y := synthData(4000, 60, 2)
	f, err := forest.Fit(cols, y, forest.Config{NumTrees: 30, MaxDepth: 12, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	scoreCols, _ := synthData(20000, 60, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.PredictProbaAll(scoreCols); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGBDTFit measures boosted-tree training at bench scale.
func benchGBDTFit(b *testing.B) {
	cols, y := synthData(3000, 60, 4)
	cfg := gbdt.Config{NumRounds: 25, MaxDepth: 6, Eta: 0.3, Lambda: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gbdt.Fit(cols, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchHistBin measures hist.Bin on a matrix the size of the drift
// controller's training frames (33,126 rows x 104 columns) with their
// column mix: 56 small-span integer counters, 27 further
// low-cardinality columns and 21 continuous ones, each about 1% NaN.
func benchHistBin(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	cols := make([][]float64, 104)
	for f := range cols {
		c := make([]float64, 33126)
		for i := range c {
			switch {
			case rng.Intn(100) == 0:
				c[i] = math.NaN()
			case f < 56:
				if rng.Intn(4) == 0 {
					c[i] = float64(rng.Intn(4*f + 1))
				}
			case f < 83:
				c[i] = float64(rng.Intn(200)) / 7
			default:
				c[i] = rng.NormFloat64() * float64(f)
			}
		}
		cols[f] = c
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := hist.Bin(cols, 0, 0); m.NumRows() != 33126 {
			b.Fatalf("binned %d rows", m.NumRows())
		}
	}
}

// benchSeriesGen measures simulator series generation across a fleet
// (the cost of materializing daily SMART logs for every drive).
func benchSeriesGen(b *testing.B) {
	fleet, err := simulate.New(simulate.Config{TotalDrives: 600, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	var drives []simulate.Drive
	for _, m := range smart.AllModels() {
		drives = append(drives, fleet.DrivesOf(m)...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range drives {
			if s := fleet.Series(d); s.LastDay < -1 {
				b.Fatal("bad series")
			}
		}
	}
}

// benchSeriesGenBatch measures SeriesAllBuf in the steady state of a
// repeated whole-fleet regeneration (the phase loop's usage): the same
// generation fanned across GOMAXPROCS workers with all series
// materialized at once, regenerating into a reused SeriesBuf so the
// fleet's column storage is allocated once, not per batch.
func benchSeriesGenBatch(b *testing.B) {
	fleet, err := simulate.New(simulate.Config{TotalDrives: 600, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	var drives []simulate.Drive
	for _, m := range smart.AllModels() {
		drives = append(drives, fleet.DrivesOf(m)...)
	}
	var buf simulate.SeriesBuf
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range fleet.SeriesAllBuf(drives, 0, &buf) {
			if s.LastDay < -1 {
				b.Fatal("bad series")
			}
		}
	}
}

// --- fleet-score: million-drive daily scoring ---

// fleetDrives is the fleet-score fleet size, set from -fleet-drives.
var fleetDrives = 1_000_000

// fleetFeats is the fleet benchmark's scoring feature set: wear and
// workload context plus the error counters that drive the paper's
// failure signal. Sorted by name so training columns line up with the
// spill file's column order (DayColumns returns features sorted).
var fleetFeats = func() []smart.Feature {
	fs := []smart.Feature{
		{Attr: smart.MWI, Kind: smart.Normalized},
		{Attr: smart.ARS, Kind: smart.Normalized},
		{Attr: smart.RER, Kind: smart.Normalized},
		{Attr: smart.POH, Kind: smart.Raw},
		{Attr: smart.PCC, Kind: smart.Raw},
		{Attr: smart.TLW, Kind: smart.Raw},
		{Attr: smart.RSC, Kind: smart.Raw},
		{Attr: smart.UCE, Kind: smart.Raw},
		{Attr: smart.PFC, Kind: smart.Raw},
		{Attr: smart.EFC, Kind: smart.Raw},
		{Attr: smart.PSC, Kind: smart.Raw},
		{Attr: smart.CEC, Kind: smart.Raw},
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].String() < fs[j].String() })
	return fs
}()

// fleetRowInto fills one drive's daily SMART reading. Healthy drives
// report exact-zero error counters almost always — the fleet's real
// sparsity, which lets tree traversal exit early for the overwhelming
// majority of the fleet — while at-risk drives show elevated counters
// and degraded normalized health values.
func fleetRowInto(rng *rand.Rand, atRisk bool, dst []float64) {
	for i, ft := range fleetFeats {
		var v float64
		switch ft.Attr {
		case smart.MWI:
			v = 97 - 40*rng.Float64()
			if atRisk {
				v = 60 - 35*rng.Float64()
			}
		case smart.ARS:
			v = 100
			if atRisk || rng.Float64() < 0.03 {
				v = 100 - float64(rng.Intn(40))
			}
		case smart.RER:
			v = 100 - 12*rng.Float64()
			if atRisk {
				v -= 30 * rng.Float64()
			}
		case smart.POH:
			v = float64(2000 + rng.Intn(30000))
		case smart.PCC:
			v = float64(rng.Intn(120))
		case smart.TLW:
			v = 1e6 * (1 + 50*rng.Float64())
		default: // error counters: RSC, UCE, PFC, EFC, PSC, CEC
			if atRisk {
				v = float64(1 + rng.Intn(400))
			} else if rng.Float64() < 0.015 {
				v = float64(1 + rng.Intn(4))
			}
		}
		dst[i] = v
	}
}

// fleetSource is a deterministic generate-on-demand single-day fleet:
// drive i's reading is a pure function of its ID, so a million-drive
// fleet costs no resident memory and spills in O(workers) space.
type fleetSource struct{ n int }

func (s fleetSource) Days() int { return 1 }

func (s fleetSource) DrivesOf(m smart.ModelID) []dataset.DriveRef {
	if m != smart.MC1 {
		return nil
	}
	refs := make([]dataset.DriveRef, s.n)
	for i := range refs {
		refs[i] = dataset.DriveRef{ID: i, Model: smart.MC1, FailDay: -1}
	}
	return refs
}

func (s fleetSource) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	rng := rand.New(rand.NewSource(0x5EED + int64(ref.ID)*1_664_525))
	atRisk := rng.Float64() < 0.02
	row := make([]float64, len(fleetFeats))
	fleetRowInto(rng, atRisk, row)
	cols := make(map[smart.Feature][]float64, len(fleetFeats))
	for i, ft := range fleetFeats {
		cols[ft] = row[i : i+1 : i+1]
	}
	return cols, 0, nil
}

// fleetTrainData draws a labeled training sample from the same
// generator, oversampling the at-risk profile to a 1:8 class mix.
func fleetTrainData(n int) (cols [][]float64, y []int) {
	cols = make([][]float64, len(fleetFeats))
	for i := range cols {
		cols[i] = make([]float64, n)
	}
	y = make([]int, n)
	row := make([]float64, len(fleetFeats))
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(7_700_000_001 + int64(i)*22_695_477))
		atRisk := i%8 == 0
		if atRisk {
			y[i] = 1
		}
		fleetRowInto(rng, atRisk, row)
		for f := range cols {
			cols[f][i] = row[f]
		}
	}
	return cols, y
}

// fleetState caches the expensive fleet-score fixture (trained model,
// spilled fleet, open store) across testing.Benchmark's calibration
// re-runs; the fleet size is fixed per process, so one setup serves
// every invocation.
var fleetState struct {
	once sync.Once
	err  error
	st   *store.Store
	fl   *flat.Forest
	out  []float64
	n    int
}

func fleetSetup() error {
	fleetState.once.Do(func() {
		fleetState.err = func() error {
			n := fleetDrives
			cols, y := fleetTrainData(6000)
			f, err := forest.Fit(cols, y, forest.Config{
				NumTrees: 30, MaxDepth: 8, MinLeafSamples: 64,
				Seed: 11, MaxBins: 64,
			})
			if err != nil {
				return err
			}
			fl, err := flat.CompileForest(f)
			if err != nil {
				return err
			}
			dir, err := os.MkdirTemp("", "bench-fleet-*")
			if err != nil {
				return err
			}
			cleanups = append(cleanups, func() { os.RemoveAll(dir) })
			src := fleetSource{n: n}
			if _, err := store.WriteSpill(dir, src, smart.MC1, runtime.GOMAXPROCS(0)); err != nil {
				return err
			}
			st := store.Open(src, store.Options{SpillDir: dir})
			if err := st.Track(smart.MC1); err != nil {
				return err
			}
			if err := st.AppendThrough(0); err != nil {
				return err
			}
			cleanups = append(cleanups, func() { st.Close() })
			fleetState.st, fleetState.fl, fleetState.n = st, fl, n
			fleetState.out = make([]float64, n)
			return nil
		}()
	})
	return fleetState.err
}

// wefrSelectState caches wefr-select's fixture: the selection frame and
// survival curve of the MC2 controller scenario's refresh.
var wefrSelectState struct {
	once  sync.Once
	fr    *frame.Frame
	curve survival.Curve
	err   error
}

// benchWEFRSelect measures one core.Select with the paper's settings on
// the selection frame a controller refresh builds: a 150-drive MC2
// fleet (simulator seed 1, AFRScale 6) trained through day 293, about
// 5.4k rows x 38 features, whose survival curve splits it into two
// re-selected wear groups.
func benchWEFRSelect(b *testing.B) {
	s := &wefrSelectState
	s.once.Do(func() {
		fleet, err := simulate.New(simulate.Config{
			TotalDrives: 150, Days: 330, Seed: 1, AFRScale: 6,
			Models: []smart.ModelID{smart.MC2},
		})
		if err != nil {
			s.err = err
			return
		}
		src := dataset.NewCachedSource(dataset.FleetSource{Fleet: fleet})
		const trainHi = 293
		pd, err := engine.New(src, engine.Config{Seed: 1}).PreparePhase(smart.MC2,
			engine.Phase{TrainLo: 0, TrainHi: trainHi, TestLo: trainHi + 1, TestHi: trainHi + 1})
		if err != nil {
			s.err = err
			return
		}
		s.fr, s.curve = pd.SelFrame, pd.Curve
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	sel := func() {
		res, err := core.Select(s.fr, s.curve, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Split == nil || !res.Split.LowRefit || !res.Split.HighRefit {
			b.Fatal("wefr-select: the frame did not split into two re-selected wear groups")
		}
	}
	sel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel()
	}
	b.ReportMetric(float64(s.fr.NumRows()), "rows")
	b.ReportMetric(float64(s.fr.NumFeatures()), "features")
}

// rankEvalState caches the rank-eval fixture (a small simulated fleet)
// across testing.Benchmark's calibration re-runs.
var rankEvalState struct {
	once sync.Once
	err  error
	src  dataset.Source
}

// benchRankEval measures one full ranker-evaluation harness pass
// (internal/rankeval): bootstrap stability, cross-seed similarity, and
// AUC-vs-k for every registered ranker plus the WEFR ensemble on a
// small fleet — the cost of `experiments -rank-eval` per model.
func benchRankEval(b *testing.B) {
	rankEvalState.once.Do(func() {
		f, err := simulate.New(simulate.Config{
			TotalDrives: 500, Seed: 5, AFRScale: 4,
			Models: []smart.ModelID{smart.MC1},
		})
		if err != nil {
			rankEvalState.err = err
			return
		}
		rankEvalState.src = dataset.NewCachedSource(dataset.FleetSource{Fleet: f})
	})
	if rankEvalState.err != nil {
		b.Fatal(rankEvalState.err)
	}
	ph := engine.StandardPhases(rankEvalState.src.Days())[2]
	cfg := engine.Config{Forest: forest.Config{NumTrees: 8, MaxDepth: 6, Seed: 1}, NegEvery: 40, Seed: 1}
	opts := rankeval.Options{Seed: 3, Bootstraps: 3, Seeds: 2, TopK: []int{3, 6}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rankeval.Run(rankEvalState.src, smart.MC1, ph, cfg, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if len(row.Errors) > 0 {
				b.Fatalf("%s: %v", row.Name, row.Errors)
			}
		}
	}
}

// benchFleetScore measures the full daily fleet-scoring path at
// -fleet-drives scale: materialize today's columns zero-copy from the
// spilled fleet, score every drive through the compiled flat forest,
// and sweep the alarm threshold — the steady-state work of scoring a
// million-drive deployment each day.
func benchFleetScore(b *testing.B) {
	if err := fleetSetup(); err != nil {
		b.Fatal(err)
	}
	snap := fleetState.st.Snapshot()
	alarms := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, cols, refs, err := snap.DayColumns(smart.MC1, 0)
		if err != nil {
			b.Fatal(err)
		}
		out := fleetState.out[:len(refs)]
		if err := fleetState.fl.PredictProbaBatch(cols, out); err != nil {
			b.Fatal(err)
		}
		alarms = 0
		for _, p := range out {
			if p >= 0.5 {
				alarms++
			}
		}
	}
	b.StopTimer()
	if alarms == 0 || alarms > fleetState.n/4 {
		b.Fatalf("implausible alarm count %d of %d drives", alarms, fleetState.n)
	}
	b.ReportMetric(float64(fleetState.n)*float64(b.N)*1e9/float64(b.Elapsed().Nanoseconds()), "drives/sec")
}

// scorerFleetState is scorer-fleet-pass's fixture, built once: the
// serving daemon's bootstrap shape (MC1, 500 drives, 150 days, WEFR,
// 10 trees of depth 8, trained on all but the last 30 days) over a
// fully ingested in-memory store.
var scorerFleetState struct {
	once   sync.Once
	src    dataset.Source
	scorer *engine.Scorer
	snap   *store.Snapshot
	day    int
	err    error
}

func scorerFleetSetup() error {
	s := &scorerFleetState
	s.once.Do(func() {
		const drives, days = 500, 150
		fleet, err := simulate.New(simulate.Config{
			TotalDrives: drives, Days: days, Seed: 1, AFRScale: 3,
			Models: []smart.ModelID{smart.MC1},
		})
		if err != nil {
			s.err = err
			return
		}
		src := dataset.FleetSource{Fleet: fleet}
		s.src = src
		train := days - 30
		ph := engine.Phase{TrainLo: 0, TrainHi: train - 1, TestLo: train, TestHi: days - 1}
		res, err := engine.RunPhase(src, smart.MC1, pipeline.WEFR{}, ph, engine.Config{
			Forest: forest.Config{NumTrees: 10, MaxDepth: 8, Seed: 1}, Seed: 1,
		})
		if err != nil {
			s.err = err
			return
		}
		snap, err := res.Snapshot()
		if err != nil {
			s.err = err
			return
		}
		if s.scorer, err = engine.NewScorer(snap, 0); err != nil {
			s.err = err
			return
		}
		st := store.Open(src, store.Options{})
		if err := st.AppendThrough(days - 1); err != nil {
			s.err = err
			return
		}
		s.snap = st.Snapshot()
		s.day = train
	})
	return s.err
}

// benchScorerFleetPass measures one warm one-day Scorer.ScoreInto over
// the store: read every drive, featurize its scored day, score each
// wear group, and fold the drive outcomes, with a reused ScoreBuf.
func benchScorerFleetPass(b *testing.B) {
	if err := scorerFleetSetup(); err != nil {
		b.Fatal(err)
	}
	s := &scorerFleetState
	var buf engine.ScoreBuf
	pass := func() int {
		out, err := s.scorer.ScoreInto(s.snap, s.day, s.day, &buf)
		if err != nil {
			b.Fatal(err)
		}
		return len(out)
	}
	if n := pass(); n == 0 {
		b.Fatal("fleet pass scored no drives")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

// serveBatchState is serve-batch-inline's fixture: scorer-fleet-pass's
// snapshot served by an in-process daemon, and one 64-drive inline
// batch body cut from the same fleet the way perfbench cuts them.
var serveBatchState struct {
	once sync.Once
	h    http.Handler
	body []byte
	err  error
}

func serveBatchSetup() error {
	s := &serveBatchState
	s.once.Do(func() {
		s.err = func() error {
			if err := scorerFleetSetup(); err != nil {
				return err
			}
			fs := &scorerFleetState
			dir, err := os.MkdirTemp("", "bench-serve-*")
			if err != nil {
				return err
			}
			cleanups = append(cleanups, func() { os.RemoveAll(dir) })
			reg := &core.Registry{Dir: dir}
			if _, err := engine.SaveSnapshot(reg, "serving", fs.scorer.Snapshot()); err != nil {
				return err
			}
			srv, err := serve.New(serve.Options{Registry: reg, Artifacts: []string{"serving"}})
			if err != nil {
				return err
			}
			cleanups = append(cleanups, srv.Close)
			s.h = srv.Handler()

			// perfbench's cutter: a uniformly drawn MC1 drive-day after
			// training, with MaxWindow days of history, every column.
			window := fs.scorer.MaxWindow()
			drives := fs.src.DrivesOf(smart.MC1)
			lo, hi := max(fs.day, window), fs.src.Days()-1
			rng := rand.New(rand.NewSource(1))
			req := serve.BatchRequest{Model: "serving"}
			for len(req.Drives) < 64 {
				ref := drives[rng.Intn(len(drives))]
				day := lo + rng.Intn(hi-lo+1)
				cols, last, err := fs.src.Series(ref)
				if err != nil {
					return err
				}
				if day > last {
					continue
				}
				series := make(map[string][]float64, len(cols))
				for ft, col := range cols {
					series[ft.String()] = col[day-window : day+1]
				}
				req.Drives = append(req.Drives, serve.BatchDrive{Series: series})
			}
			s.body, err = json.Marshal(req)
			return err
		}()
	})
	return s.err
}

// benchServeBatchInline measures one POST /v1/score/batch of 64 inline
// drives (38 features x 8 days, about 90 KB) through the daemon's
// handler in process: body decode, featurize, one kernel call per wear
// group, and the response encode, without the network.
func benchServeBatchInline(b *testing.B) {
	if err := serveBatchSetup(); err != nil {
		b.Fatal(err)
	}
	s := &serveBatchState
	post := func() {
		rec := httptest.NewRecorder()
		s.h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/score/batch", bytes.NewReader(s.body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
		}
	}
	post()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
