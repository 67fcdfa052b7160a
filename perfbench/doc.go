// Command perfbench is the repository benchmark. It builds the serving
// binaries from the checkout, starts them, drives one workload, checks
// every answer, and prints the workload's metrics.
//
// It measures the repository's own binaries on loopback: two
// cmd/serve replicas behind cmd/gateway, loading artifacts made with
// cmd/gennet, cmd/gentraj and cmd/train. Every replica runs
// cmd/serve's defaults except for addresses, artifact paths and
// -replica-id, and runs under the SCHED_IDLE policy, so that a
// generator send preempts it at once. One generator process (this
// one, a normal process) drives a workload in an open loop:
// requests are due on a schedule drawn from the seed and each is timed
// from when it was due, so a stall counts against every request it
// delays. The generator has as many senders as the machine has CPUs,
// each with one connection; a time-expanded search gets its own sender
// lane so cache hits never queue behind it.
//
// # Running
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// from the root of a checkout. The script builds this module and the
// serving binaries into $CARGO_TARGET_DIR (default .bench_build), with
// the Go build cache there too. The first run also trains the artifact
// fixture (about two minutes on two cores); later runs reuse it until
// the code changes. The correctness gate's reference answers are
// computed in process on every run (3-6 s on two cores). The
// last line of standard output is a JSON summary: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The
// lines above it print every metric with its unit and sample count,
// the machine (nproc, CPU model, Go version, a hash of the Go sources)
// and each process's GOMAXPROCS.
//
// # Inputs
//
// The fixture is a 20x20 grid, 30000 trajectories over four
// time-of-day slices with slice 1 as the rush hour, and one hybrid
// model per slice trained with cmd/train's defaults. Each workload
// draws from a fixed route population (populationSeed): which
// origin-destination pairs exist and their budgets, 1.8 times the
// optimistic travel time. The run seed draws the rest: arrival times,
// order, the request mix, Zipf picks and the drift stream.
//
// # Workloads
//
// Each nominal rate is a quarter of the max_rate_qps the workload's
// traced rate ladder found on the code the benchmark was defined on
// (see CHANGES.md for the figures), so the latency metrics measure service, not queueing. The
// mix fractions below (10% batches, 5% time-expanded, Zipf exponent 1
// over 300 pairs, every fourth drift read a repeat) and the ingest rate
// are choices, not measurements of real traffic.
//
// hot-fleet: caches warmed before timing. 240 requests per second:
// 85% plain /route on a Zipf(1) choice of 300 hot 0.3-1 km pairs, each
// with a fixed budget and departure, and 10% /route/batch of 16 hot
// pairs, both as a Poisson stream; 5% time_expanded=true on the most
// popular pairs, evenly spaced, which the server never caches. p50 is
// the hit path through the gateway, p99 the uncached time-expanded
// search.
//
// drift-ingest: reads arrive evenly spaced, 40 per second. Three in
// four go once through 350 pairs of 0.3-0.8 km asked in each of the
// four slices, in a seed-drawn order; the fourth repeats a random
// earlier read, so it hits the cache, or, for slice 1 after the swap,
// meets an entry the swap invalidated. Beside them go 160 /ingest
// batches of 25 trajectories at 20 per second from a congested AM-peak
// stream (cmd/gentraj -slice-weights 0,1,0,0 -congestion 2). Drift
// fires on slice 1, every replica retrains it and hot-swaps it, which
// invalidates that slice's cache. Reads go on until the swap has
// settled plus two seconds, and at least --seconds. Most reads are
// searches, so the routing, hybrid and hist layers show here.
//
// # End-to-end metrics (untraced)
//
// setup_s: the median over the run's three fleet start-ups of the
// time from launching the processes until every replica's own /healthz
// reports model_epoch >= 1 and then a probe /route succeeds through
// the gateway. The gateway is started once the replicas are healthy.
//
// route_p50_ms, route_p99_ms: GET /route latency from the due time.
// on_time_prob_mean: the mean served P(arrival <= budget) over the
// distinct queries answered. cpu_ms_per_op: user+system CPU of all
// serving processes over the window per completed operation.
// rss_mb: the fleet's summed resident set, sampled every 100 ms over
// the window and averaged.
//
// The workload-specific end-to-end numbers (max_rate_qps, batch_*,
// ingest_ack_*, swap_s, failed_frac and the peak RSS) are printed on
// every run and reported in the traced summary, since a summary's
// metrics are the same on every workload.
//
// # Per-layer metrics (traced)
//
// A traced run repeats the untraced run, then climbs a rate ladder for
// max_rate_qps: on hot-fleet the workload's own mix; on drift-ingest,
// after the swap, reads only, of pairs the window never asked. Then it
// replays the window's request sequence one request at a time against
// an in-process copy of the fleet built from the same artifacts
// (servers with cmd/serve's defaults, the gateway over loopback HTTP),
// once untraced and once with every boundary timed from this package:
// the gateway handler, the replica handler, Engine.RouteCtx and
// Engine.RouteBatch, and routing.PBR re-run on the same coster and
// options and checked bit-identical to the engine's answer. Self time
// is a span minus the spans of its callee in the same request; the
// replay gives every boundary the cache state the fleet's request saw,
// and repeats the drift-ingest swap at the point the fleet swapped.
// Counts are deltas of the fleet's own /metrics series over the window.
//
// Predictions: which end-to-end metric each layer should move, and on
// which workload.
//
//	layer              metrics                            should move
//	generator          loadgen.lag_p99_ms, .sent,         validity only: a late generator's window is re-run
//	                   .windows_rejected
//	internal/gateway   gateway.self_*, .batch_fanout,     route_p50_ms, max_rate_qps, batch_* on hot-fleet
//	                   failovers, errors, ingest_*, cpu_s
//	internal/server    server.self_p50_us, .hit_p50_us,   route_p50_ms on hot-fleet; route_p50_ms on
//	                   cache ratios, invalidations, bytes drift-ingest after the swap (invalidation)
//	engine (root)      engine.self_p50_us,                batch_p50_ms on hot-fleet; swap_s on drift-ingest
//	                   .batch_item_p50_us, .swap_ms
//	internal/routing   routing.search_*, expansions,      route_p50/p99_ms on drift-ingest (reads are
//	                   labels, pruning fractions          mostly searches); route_p99_ms only on hot-fleet
//	internal/hybrid    hybrid.extends_per_query,          swap_s, route_*, cpu_ms_per_op on drift-ingest
//	(+ internal/ml)    convolve_frac, extend_us,
//	                   rebuild_s, train_s
//	internal/hist      hist.convolve_us,                  route_p50_ms on drift-ingest
//	                   support_buckets_mean
//	internal/ingest    ingest.fold_us_per_traj, counts    ingest_ack_*, swap_s on drift-ingest
//	internal/obs       obs.trace_overhead_frac,           honesty of the traced run
//	                   traced_route_p50_ms, residual_frac
//
// The traced run also prints the blocking path of /route (p50 self
// time per layer, their sum, the traced in-process p50 and the
// residual) and each layer's share of the fleet's route_p50_ms.
//
// # Checks and validity
//
// Every served /route answer and /route/batch item must equal the
// in-process engine's answer for the same query (path, probability
// bits, slice epoch); batch items are held to the answers of the same
// queries sent alone. On drift-ingest, answers from slices that
// received no drift must still equal the epoch-1 engine; answers a
// swapped model gave must equal what the same replica serves after the
// window, and carry no epoch above it. An answer from an earlier
// swapped epoch, one the swap watcher saw that replica serve, has no
// reference left and is counted as unchecked; more than 2% of the
// /route answers unchecked fails them all. Both replicas, queried
// directly after the window, must agree at the same slice epoch. The
// run must record a drift-triggered swap and a rebuild on every
// replica. Each failure counts in failed.
//
// A window is rejected when the generator's lateness at p99 exceeds a
// tenth of the route p99 it measured (or 5 ms, whichever is larger):
// its figures are dropped and the window runs again on a freshly
// started fleet, up to three windows in all while time allows. The
// run is rejected, with a non-zero exit and no summary, when no window
// passes, or when the generator held more connections or ran more
// senders than the machine has CPUs.
package main
