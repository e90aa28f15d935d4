// Command serve runs the online prediction service: a long-lived
// daemon that loads model snapshots from a registry, answers
// per-drive, batch, and whole-fleet scoring requests over HTTP/JSON,
// and admits streaming SMART telemetry into its columnar store.
//
// A single-drive request assembles its feature row in pooled scratch
// and scores it with one call into the compiled scoring kernel, the
// same call a batch request makes per wear group, so the hot path is
// allocation-free at steady state. Snapshot promotions (e.g. by the
// continuous-operation controller writing new registry versions) go
// live through an atomic pointer store — in-flight requests finish on
// the snapshot they started with, new requests pick up the new one,
// and every response echoes the (version, config-hash) identity it
// was scored under.
//
// Usage:
//
//	serve -dir runs/mc1/registry -bootstrap             # train v1 if absent, serve on :8089
//	serve -dir runs/mc1/registry -watch 2s              # pick up controller promotions live
//
// The daemon has no built-in load generator: perfbench drives it from
// a separate process over HTTP and checks every reply against offline
// scoring (bash perfbench/run.sh --workload serve-inline).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/forest"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/store"
)

// options are the CLI parameters of one serve run.
type options struct {
	Dir       string
	Artifacts string
	Addr      string
	Model     string
	Drives    int
	Days      int
	Seed      int64
	AFRScale  float64
	Trees     int
	Depth     int
	Workers   int
	Bootstrap bool
	TrainDays int
	Ingest    int
	Watch     time.Duration

	MaxInflight      int
	DefaultDeadline  time.Duration
	DegradedOK       bool
	DrainTimeout     time.Duration
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.Dir, "dir", "", "snapshot registry directory (required)")
	flag.StringVar(&o.Artifacts, "artifact", "serving", "comma-separated registry artifact names to serve")
	flag.StringVar(&o.Addr, "addr", ":8089", "listen address")
	flag.StringVar(&o.Model, "model", "MC1", "drive model served from the simulated fleet store")
	flag.IntVar(&o.Drives, "drives", 2000, "synthetic fleet size backing the store")
	flag.IntVar(&o.Days, "days", 0, "simulated span in days (0 = simulator default)")
	flag.Int64Var(&o.Seed, "seed", 1, "seed")
	flag.Float64Var(&o.AFRScale, "afr-scale", 3, "failure densifier")
	flag.IntVar(&o.Trees, "trees", 50, "bootstrap forest size")
	flag.IntVar(&o.Depth, "depth", 10, "bootstrap forest depth")
	flag.IntVar(&o.Workers, "workers", 0, "parallelism (0 = all cores)")
	flag.BoolVar(&o.Bootstrap, "bootstrap", false, "train and save version 1 of any artifact the registry does not hold yet")
	flag.IntVar(&o.TrainDays, "train-days", 0, "bootstrap training span in days (0 = all but the last 30)")
	flag.IntVar(&o.Ingest, "ingest-through", 0, "admit source days [0, N] at boot (0 = the full span); later days arrive via POST /v1/ingest")
	flag.DurationVar(&o.Watch, "watch", 0, "poll the registry at this interval and hot-swap new versions (0 = manual /v1/reload only)")
	flag.IntVar(&o.MaxInflight, "max-inflight", 0, "concurrent single-drive requests admitted (0 = default 256); batch/fleet/ingest caps scale from defaults")
	flag.DurationVar(&o.DefaultDeadline, "default-deadline", 0, "per-request deadline when the client sends no X-Deadline-Ms (0 = default 2s)")
	flag.BoolVar(&o.DegradedOK, "degraded-ok", false, "report ready on /readyz even while degraded (breaker open or registry stale)")
	flag.DurationVar(&o.DrainTimeout, "drain-timeout", 10*time.Second, "bound on draining in-flight requests at SIGTERM/SIGINT")
	flag.IntVar(&o.BreakerThreshold, "breaker-threshold", 0, "consecutive store failures that trip the circuit breaker (0 = default 5)")
	flag.DurationVar(&o.BreakerCooldown, "breaker-cooldown", 0, "breaker open interval before a half-open probe (0 = default 2s)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	model, err := smart.ParseModel(o.Model)
	if err != nil {
		return err
	}
	if o.Dir == "" {
		return fmt.Errorf("-dir is required")
	}
	names := strings.Split(o.Artifacts, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	reg := &core.Registry{Dir: o.Dir}

	fleet, err := simulate.New(simulate.Config{
		TotalDrives: o.Drives, Days: o.Days, Seed: o.Seed, AFRScale: o.AFRScale,
		Models: []smart.ModelID{model},
	})
	if err != nil {
		return err
	}
	src := dataset.FleetSource{Fleet: fleet}
	st := store.Open(src, store.Options{Workers: o.Workers})
	defer st.Close()
	if err := st.Track(model); err != nil {
		return err
	}
	ingest := o.Ingest
	if ingest <= 0 || ingest >= src.Days() {
		ingest = src.Days() - 1
	}
	if err := st.AppendThrough(ingest); err != nil {
		return err
	}

	for _, name := range names {
		v, err := reg.LatestVersion(name)
		if err != nil {
			return err
		}
		if v > 0 {
			continue
		}
		if !o.Bootstrap {
			return fmt.Errorf("artifact %q has no version in %s (use -bootstrap to train one)", name, o.Dir)
		}
		if err := bootstrap(reg, name, src, model, o); err != nil {
			return fmt.Errorf("bootstrap %q: %w", name, err)
		}
	}

	s, err := serve.New(serve.Options{
		Registry: reg, Artifacts: names, Store: st,
		Workers:           o.Workers,
		MaxInflightSingle: o.MaxInflight,
		DefaultDeadline:   o.DefaultDeadline,
		DegradedOK:        o.DegradedOK,
		BreakerThreshold:  o.BreakerThreshold,
		BreakerCooldown:   o.BreakerCooldown,
		BreakerSeed:       o.Seed,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	if o.Watch > 0 {
		s.Watch(o.Watch, func(err error) {
			fmt.Fprintf(os.Stderr, "serve: watch: %v\n", err)
		})
	}

	ln, err := net.Listen("tcp", o.Addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serve: listening on %s, artifacts %s, horizon %d\n",
		ln.Addr(), strings.Join(names, ","), st.Horizon())
	srv := &http.Server{Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		// Graceful drain: stop accepting, let in-flight requests finish
		// within the drain budget, then exit 0. The deferred s.Close
		// stops the registry watcher after the HTTP layer quiesces.
		if o.DrainTimeout <= 0 {
			o.DrainTimeout = 10 * time.Second
		}
		fmt.Fprintf(os.Stderr, "serve: signal received, draining (timeout %s)\n", o.DrainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), o.DrainTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		fmt.Fprintf(os.Stderr, "serve: drained, exiting\n")
		return nil
	case err := <-errc:
		return err
	}
}

// bootstrap trains version 1 of an artifact on the simulated fleet's
// early history — WEFR feature selection over a train span ending 30
// days before the simulated horizon, so served snapshots always have
// post-training days to score.
func bootstrap(reg *core.Registry, name string, src dataset.Source, model smart.ModelID, o options) error {
	days := src.Days()
	train := o.TrainDays
	if train <= 0 {
		train = days - 30
	}
	if train < 2 || train >= days {
		return fmt.Errorf("training span %d does not fit %d simulated days", train, days)
	}
	testHi := train + 29
	if testHi > days-1 {
		testHi = days - 1
	}
	ph := engine.Phase{TrainLo: 0, TrainHi: train - 1, TestLo: train, TestHi: testHi}
	cfg := engine.Config{
		Forest:  forest.Config{NumTrees: o.Trees, MaxDepth: o.Depth, Seed: o.Seed},
		Workers: o.Workers,
		Seed:    o.Seed,
	}
	fmt.Fprintf(os.Stderr, "serve: bootstrapping %q: training on days [0, %d]\n", name, train-1)
	res, err := engine.RunPhase(src, model, pipeline.WEFR{}, ph, cfg)
	if err != nil {
		return err
	}
	snap, err := res.Snapshot()
	if err != nil {
		return err
	}
	v, err := engine.SaveSnapshot(reg, name, snap)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serve: saved %q v%d (config %s)\n", name, v, snap.ConfigHash)
	return nil
}
