// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per invocation and prints, as the last line of standard
// output, one JSON object with the run's correctness, operation counts
// and metrics:
//
//	perfbench -workload serve-inline -seed 1 -seconds 20 -trace 0
//
// Workloads:
//
//   - serve-inline: a cmd/serve daemon in its own process; open-loop
//     Poisson traffic of ~90% single /v1/score requests carrying inline
//     telemetry windows and ~10% /v1/score/batch requests of 64 drives,
//     over a ladder of fixed rates. JSON decode, featurization, the
//     coalescer and the flat kernel do the work; the store does none.
//   - serve-store: the same daemon booted with the last days of its span
//     not yet ingested; ~95% store-backed /v1/score by drive_id and ~5%
//     /v1/score/fleet passes, while /v1/ingest admits one new day at a
//     fixed cadence. Store reads, fleet passes and appends do the work.
//   - controller-mc2: control.Run in this process on the MC2
//     firmware-bug scenario, ending on the drift day so exactly one
//     refresh closes the run. WEFR selection and forest training do the
//     work; no HTTP, no coalescer.
//
// With -trace 0 the metrics are the end-to-end ones, the same names on
// every workload:
//
//   - setup_s: serve, daemon exec to the first /readyz 200; controller,
//     building the simulated fleet. Median of several set-ups.
//   - p50_ms: the workload's main operation. serve-*: single /v1/score
//     at the reference rung; controller-mc2: the refresh, from the
//     drift-fired log line to the return of control.Run.
//   - side_p50_ms: the secondary operation. serve-inline: a batch of 64;
//     serve-store: a fleet pass; controller-mc2: control.Run wall time
//     outside the refresh, per controlled day.
//   - rate_per_s: serve-*: goodput_qps, accepted requests per second
//     while both connections send back to back, the median of three
//     overload windows; controller-mc2: ctl_days_per_s.
//
// The lines before the JSON print every end-to-end figure under its own
// name (single_tail_ms, fleet_p50_ms, error_rate, ...). With -trace 1
// the run records spans and reports the per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

// runOpts are one invocation's settings.
type runOpts struct {
	seed     int64
	seconds  int
	trace    bool
	serveBin string
	work     string
}

// outcome is what one workload run reports.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"side_p50_ms", "ms"},
	{"rate_per_s", "1/s"},
}

// perLayer are the metrics of a traced run. A layer the workload does
// not exercise reads 0.
var perLayer = []metricDef{
	{"serve.rows_per_flush", "rows"},
	{"serve.age_flush_frac", "frac"},
	{"serve.shed", "count"},
	{"serve.deadline_exceeded", "count"},
	{"serve.errors", "count"},
	{"serve.http_rtt_us", "us"},
	{"serve.decode_us.single", "us"},
	{"serve.decode_us.batch", "us"},
	{"serve.encode_us", "us"},
	{"serve.handler_single_us", "us"},
	{"serve.handler_batch1_us", "us"},
	{"serve.coalescer_wait_us", "us"},
	{"serve.unloaded_single_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.residual_ms", "ms"},
	{"gen.lag_p50_us", "us"},
	{"store.series_us", "us"},
	{"store.append_ms", "ms"},
	{"store.day_columns_ms", "ms"},
	{"store.fetches", "count"},
	{"store.retries", "count"},
	{"featgen.row_us", "us"},
	{"engine.score_batch_us.1", "us"},
	{"engine.score_batch_us.64", "us"},
	{"engine.score_fleet_ms", "ms"},
	{"engine.stage.ingest_s", "s"},
	{"engine.stage.featurize_s", "s"},
	{"engine.stage.select_s", "s"},
	{"engine.stage.train_s", "s"},
	{"engine.stage.calibrate_s", "s"},
	{"engine.stage.score_s", "s"},
	{"engine.stage.evaluate_s", "s"},
	{"engine.stage.ingest_rows", "rows"},
	{"engine.stage.featurize_rows", "rows"},
	{"engine.stage.select_rows", "rows"},
	{"engine.stage.train_rows", "rows"},
	{"engine.stage.calibrate_rows", "rows"},
	{"engine.stage.score_rows", "rows"},
	{"engine.stage.evaluate_rows", "rows"},
	{"selection.rank_s.pearson", "s"},
	{"selection.rank_s.spearman", "s"},
	{"selection.rank_s.j-index", "s"},
	{"selection.rank_s.random-forest", "s"},
	{"selection.rank_s.xgboost", "s"},
	{"complexity.cutoff_ms", "ms"},
	{"dataset.series_ms", "ms"},
	{"dataset.series_calls", "count"},
	{"control.day_ms", "ms"},
	{"changepoint.detect_ms", "ms"},
	{"runlog.append_us", "us"},
	{"core.save_ms", "ms"},
	{"layersum.e2e_ms", "ms"},
	{"layersum.sum_ms", "ms"},
	{"layersum.remainder_pct", "%"},
	{"trace.overhead_pct", "%"},
}

var workloads = []string{serveInline.name, serveStore.name, ctlWorkload}

func main() {
	var o runOpts
	var workload string
	var trace int
	flag.StringVar(&workload, "workload", "", "workload: serve-inline, serve-store or controller-mc2")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&o.serveBin, "serve-bin", ".bench_build/bin/serve", "cmd/serve binary")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for registries, journals and traces")
	flag.Parse()
	o.trace = trace == 1
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		stopAll()
		fmt.Fprintf(os.Stderr, "perfbench: %v: daemons stopped\n", sig)
		os.Exit(1)
	}()
	if err := run(workload, o, os.Stdout); err != nil {
		stopAll()
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(workload string, o runOpts, out io.Writer) error {
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	var oc *outcome
	var err error
	switch workload {
	case serveInline.name:
		oc, err = runServe(o, serveInline, out)
	case serveStore.name:
		oc, err = runServe(o, serveStore, out)
	case ctlWorkload:
		oc, err = runController(o, out)
	default:
		return fmt.Errorf("unknown -workload %q (want one of %v)", workload, workloads)
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line, err := resultLine(oc, defs, o.trace)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, line)
	return err
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// resultLine renders the run's result with exactly the given metrics.
// A metric the run did not produce is an error unless zeroOK is set:
// a per-layer metric reads 0 on a workload that does not exercise the
// layer.
func resultLine(oc *outcome, defs []metricDef, zeroOK bool) (string, error) {
	r := resultOut{Correct: oc.correct, Attempted: oc.attempted, Failed: oc.failed, Metrics: make(map[string]metricOut)}
	names := make(map[string]bool)
	for _, d := range defs {
		names[d.name] = true
		v, ok := oc.metrics[d.name]
		if !ok && !zeroOK {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range oc.metrics {
		if !names[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return "", fmt.Errorf("metrics %v are not declared", extra)
	}
	if r.Attempted < 1 {
		return "", fmt.Errorf("no operation attempted")
	}
	data, err := json.Marshal(r)
	return string(data), err
}
