package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"syscall"
)

// workloads are the workloads the benchmark runs. Each runs on the
// gateway over fleetReplicas replicas.
var workloads = []string{"hot-fleet", "drift-ingest"}

const fleetReplicas = 2

// setups is the number of fleet start-ups per run; setup_s is their
// median.
const setups = 3

type config struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       bool
	root, build string
	// fixtureSteps overrides the artifact recipe (tests use a small one).
	fixtureSteps [][]string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: hot-fleet or drift-ingest")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: also run the rate ladder and the in-process layer breakdown, and report per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "root of the checkout under test")
	flag.StringVar(&cfg.build, "build", "", "build directory (default <root>/.bench_build)")
	flag.Parse()
	cfg.trace = trace != 0

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := runBench(ctx, cfg)
	stop()
	if err != nil {
		logf("error: %v", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, res); err != nil {
		logf("error: %v", err)
		os.Exit(1)
	}
}

// runBench runs one workload end to end and returns its result, or an
// error when the run is invalid and must not be reported.
func runBench(ctx context.Context, cfg config) (*result, error) {
	if !slices.Contains(workloads, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (want hot-fleet or drift-ingest)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	e, err := newEnv(cfg.root, cfg.build, cfg.seed, cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := e.buildSUT(); err != nil {
		return nil, err
	}
	steps := fixtureSteps
	if cfg.fixtureSteps != nil {
		steps = cfg.fixtureSteps
	}
	fx, err := e.makeFixture(steps)
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	r, err := newRunner(ctx, e, fx, cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.execute(); err != nil {
		return nil, err
	}
	res := r.finish()
	res.machine = describeMachine(e)
	res.procs = append(r.processInfo(), fmt.Sprintf("generator GOMAXPROCS=%d senders=%d peak_connections=%d threads=%s",
		runtime.GOMAXPROCS(0), r.gen.workers, r.gen.peak.Load(), statusField(os.Getpid(), "Threads")))
	return res, nil
}
