package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"stochroute"
	"stochroute/internal/gateway"
	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/ingest"
	"stochroute/internal/obs"
	"stochroute/internal/routing"
	"stochroute/internal/server"
)

// p99 limits of the rate ladder, per workload.
var p99Limit = map[string]time.Duration{
	"hot-fleet":    200 * time.Millisecond,
	"drift-ingest": 300 * time.Millisecond,
}

// ladder finds max_rate_qps: the achieved throughput of the highest
// rung of the workload's rate ladder that completes every request,
// keeps route p99 within the workload's limit and ends without a
// growing backlog. Rungs run in ascending order and stop at the first
// that fails.
func (r *runner) ladder() error {
	limit, ok := p99Limit[r.cfg.workload]
	if !ok || len(r.in.Ladder) == 0 {
		r.layers.layer("max_rate_qps", "req/s", 0, 0)
		return nil
	}
	best, n := 0.0, 0
	for _, st := range r.in.Ladder {
		ops, err := r.buildOps(st.Schedule)
		if err != nil {
			return err
		}
		outs := r.gen.runFrom(r.ctx, r.ctx, ops, time.Now())
		if err := r.ctx.Err(); err != nil {
			return err
		}
		var lat, lastWait []float64
		var last time.Duration
		failed := 0
		for i, o := range outs {
			if !o.ok() {
				failed++
				continue
			}
			lat = append(lat, ms(o.lat))
			last = max(last, o.done)
			if i >= len(outs)*3/4 {
				lastWait = append(lastWait, ms(o.wait))
			}
		}
		p99 := quantile(lat, 0.99)
		backlog := quantile(lastWait, 0.90)
		achieved := float64(len(lat)) / last.Seconds()
		pass := failed == 0 && p99 <= ms(limit) && backlog <= ms(limit)/2
		logf("ladder %s: %.0f req/s offered, %.1f achieved, p99 %.1f ms, final-quarter wait p90 %.1f ms, %d failed: pass=%v",
			r.cfg.workload, st.RateQPS, achieved, p99, backlog, failed, pass)
		if !pass {
			break
		}
		best, n = achieved, len(lat)
	}
	r.layers.layer("max_rate_qps", "req/s", best, n)
	return nil
}

// interval is one timed call.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// covered is the length of the union of ivs.
func covered(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.start.After(cur.end):
			total += cur.dur()
			cur = iv
		case iv.end.After(cur.end):
			cur.end = iv.end
		}
	}
	if len(ivs) > 0 {
		total += cur.dur()
	}
	return total
}

// engineCall is one call the in-process server made into the engine;
// res is nil for a batch.
type engineCall struct {
	span interval
	src  graph.VertexID
	dst  graph.VertexID
	opts routing.Options
	res  *routing.Result
}

// spanLog collects the spans of the request being replayed. The replay
// sends one request at a time, so every span recorded while it runs
// belongs to it.
type spanLog struct {
	mu      sync.Mutex
	replica []interval
	engine  []*engineCall
}

func (l *spanLog) reset() {
	l.mu.Lock()
	l.replica, l.engine = nil, nil
	l.mu.Unlock()
}

// wrap times the replica handler for routing requests.
func (l *spanLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, req)
		if strings.HasPrefix(req.URL.Path, "/route") {
			l.mu.Lock()
			l.replica = append(l.replica, interval{t0, time.Now()})
			l.mu.Unlock()
		}
	})
}

// timedBackend is the engine behind an in-process server, timing the
// calls the server makes into it.
type timedBackend struct {
	*stochroute.Engine
	log *spanLog
}

func (b *timedBackend) RouteCtx(ctx context.Context, src, dst graph.VertexID, opts routing.Options) (*routing.Result, error) {
	t0 := time.Now()
	res, err := b.Engine.RouteCtx(ctx, src, dst, opts)
	c := &engineCall{span: interval{t0, time.Now()}, src: src, dst: dst, opts: opts, res: res}
	b.log.mu.Lock()
	b.log.engine = append(b.log.engine, c)
	b.log.mu.Unlock()
	return res, err
}

func (b *timedBackend) RouteBatch(ctx context.Context, qs []routing.BatchQuery, workers int) []routing.BatchItem {
	t0 := time.Now()
	items := b.Engine.RouteBatch(ctx, qs, workers)
	if len(qs) > 0 {
		c := &engineCall{span: interval{t0, time.Now()}}
		b.log.mu.Lock()
		b.log.engine = append(b.log.engine, c)
		b.log.mu.Unlock()
	}
	return items
}

// stack is an in-process copy of the fleet: servers over the engine
// the oracle loaded from the same artifacts, configured as cmd/serve's
// defaults, and a gateway reaching them over loopback HTTP.
type stack struct {
	top     http.Handler
	servers []*http.Server
	cancel  context.CancelFunc
}

func (s *stack) close() {
	s.cancel()
	for _, hs := range s.servers {
		_ = hs.Close() // in-process listener; nothing to flush
	}
}

// newStack builds a fresh stack (empty caches). With log set, every
// layer boundary is timed into it.
func (r *runner) newStack(log *spanLog) (*stack, error) {
	ctx, cancel := context.WithCancel(context.Background())
	st := &stack{cancel: cancel}
	var reps []gateway.Replica
	for i := 0; i < fleetReplicas; i++ {
		var backend server.Backend = r.eng
		if log != nil {
			backend = &timedBackend{Engine: r.eng, log: log}
		}
		id := fmt.Sprintf("r%d", i+1)
		srv := server.New(backend, server.Config{
			RequestTimeout:      serveTimeout,
			RouteCache:          4096,
			PairCache:           16384,
			CacheShards:         16,
			BudgetBucketSeconds: 15,
			MaxBatch:            256,
			ReplicaID:           id,
		})
		var h http.Handler = srv.Handler()
		if log != nil {
			h = log.wrap(h)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, err
		}
		hs := &http.Server{Handler: h}
		st.servers = append(st.servers, hs)
		go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed on close
		reps = append(reps, gateway.Replica{ID: id, URL: "http://" + ln.Addr().String()})
	}
	gw, err := gateway.New(gateway.Config{Replicas: reps})
	if err != nil {
		st.close()
		return nil, err
	}
	gw.Start(ctx)
	st.top = gw.Handler()
	return st, nil
}

// replayOp is one request of the replayed sequence.
type replayOp struct {
	sched schedOp
	req   func() *http.Request
}

// traced holds the per-request layer times of the traced replay.
type traced struct {
	top, gwSelf, srvSelf, engSelf, search []float64 // per /route request, µs; 0 where the layer was not entered
	gwAll, srvHit, engAll                 []float64 // over requests entering the layer, µs
	searchMS                              []float64
	expansions, labels, expanded          []float64
	prunedDom, prunedPiv, prunedPot       []float64
	extends, convolveFrac                 []float64
	extendUS, convolveUS, support         []float64
	batchItemUS                           []float64
	swapMS                                []float64
	pbrMismatch                           int
}

// replayCap bounds the requests replayed per pass (0 = all: the
// drift-ingest replay must reach the swap).
var replayCap = map[string]int{"hot-fleet": 1500}

// batchCap bounds the batches re-run item by item through
// Engine.RouteBatch.
const batchCap = 10

// traceLayers replays the timed window's request sequence against the
// in-process stack, once untraced and once with every layer boundary
// timed, and derives the per-layer metrics; it adds the counters the
// fleet exported over the window.
func (r *runner) traceLayers() error {
	// cmd/serve attaches search telemetry to its engine; so does the copy.
	r.eng.SetSearchMetrics(obs.NewSearchMetrics(obs.NewRegistry(), r.eng.NumSlices()))
	seq, swapAt := r.replaySequence()
	untraced, err := r.replay(seq, swapAt, nil, nil)
	if err != nil {
		return err
	}
	tr := &traced{}
	log := &spanLog{}
	if _, err := r.replay(seq, swapAt, log, tr); err != nil {
		return err
	}
	if len(tr.swapMS) == 0 {
		// No swap in the window: time three swaps of the drift slice's
		// own model, which bumps its epoch exactly as a rebuild would.
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := r.eng.SwapSliceModel(driftSlice, r.eng.SliceModel(driftSlice), nil); err != nil {
				return err
			}
			tr.swapMS = append(tr.swapMS, ms(time.Since(t0)))
		}
	}
	foldUS, err := r.foldCost()
	if err != nil {
		return err
	}
	r.layerMetrics(tr, untraced, foldUS)
	return nil
}

// replaySequence is the timed window's request sequence (reads and
// batches; the write path is measured on its own), capped, with the
// index of the first request the fleet answered from a swapped model.
func (r *runner) replaySequence() ([]replayOp, int) {
	var seq []replayOp
	swapAt := -1
	for i, o := range r.outs {
		s := r.in.Schedule[i]
		if !o.sent || s.Kind == kindIngest {
			continue
		}
		if c := replayCap[r.cfg.workload]; c > 0 && len(seq) == c {
			break
		}
		if s.Kind == kindRoute && swapAt < 0 && o.ok() {
			if a, err := decodeRoute(o.body); err == nil && a.Slice == driftSlice && a.ModelEpoch > 1 {
				swapAt = len(seq)
			}
		}
		op := r.ops[i]
		seq = append(seq, replayOp{sched: s, req: func() *http.Request {
			path := strings.TrimPrefix(op.url, r.fl.front)
			if op.body == nil {
				return httptest.NewRequest(op.method, path, nil)
			}
			req := httptest.NewRequest(op.method, path, strings.NewReader(string(op.body)))
			req.Header.Set("Content-Type", "application/json")
			return req
		}})
	}
	return seq, swapAt
}

// replay sends seq through a fresh stack, one request at a time, after
// the workload's warm-up. It returns the top-level /route latencies
// (µs); with log set it records every layer into tr.
func (r *runner) replay(seq []replayOp, swapAt int, log *spanLog, tr *traced) ([]float64, error) {
	st, err := r.newStack(log)
	if err != nil {
		return nil, err
	}
	defer st.close()
	for _, qi := range r.in.Warm {
		rec := httptest.NewRecorder()
		st.top.ServeHTTP(rec, httptest.NewRequest("GET", r.in.Queries[qi].url(""), nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process warm-up: status %d", rec.Code)
		}
	}
	var tops []float64
	batchRuns := 0
	for i, op := range seq {
		if i == swapAt {
			t0 := time.Now()
			if _, err := r.eng.SwapSliceModel(driftSlice, r.eng.SliceModel(driftSlice), nil); err != nil {
				return nil, err
			}
			if tr != nil {
				tr.swapMS = append(tr.swapMS, ms(time.Since(t0)))
			}
		}
		if log != nil {
			log.reset()
		}
		req := op.req()
		rec := httptest.NewRecorder()
		t0 := time.Now()
		st.top.ServeHTTP(rec, req)
		top := time.Since(t0)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process replay %s: status %d: %.200s", req.URL, rec.Code, rec.Body.String())
		}
		if op.sched.Kind == kindRoute {
			tops = append(tops, us(top))
		}
		if log == nil {
			continue
		}
		log.mu.Lock()
		replicaIvs, calls := log.replica, log.engine
		log.mu.Unlock()
		var engIvs []interval
		for _, c := range calls {
			engIvs = append(engIvs, c.span)
		}
		replica := covered(replicaIvs)
		tr.gwAll = append(tr.gwAll, us(top-replica))
		eng := covered(engIvs)
		if op.sched.Kind == kindBatch {
			if batchRuns < batchCap {
				batchRuns++
				r.timeBatchItems(op.sched.Batch, tr)
			}
			continue
		}
		var search time.Duration
		for _, c := range calls {
			d, err := r.searchLayers(c, tr)
			if err != nil {
				return nil, err
			}
			search += d
		}
		tr.top = append(tr.top, us(top))
		tr.srvSelf = append(tr.srvSelf, us(replica-eng))
		tr.gwSelf = append(tr.gwSelf, us(top-replica))
		if len(calls) == 0 {
			tr.srvHit = append(tr.srvHit, us(replica))
		} else {
			tr.engAll = append(tr.engAll, us(max(0, eng-search)))
		}
		tr.engSelf = append(tr.engSelf, us(max(0, eng-search)))
		tr.search = append(tr.search, us(search))
	}
	return tops, nil
}

// searchLayers re-runs one engine search as routing.PBR on the same
// coster and options, checks it is bit-identical to the engine's
// answer, and records the search, cost-model and kernel layers.
func (r *runner) searchLayers(c *engineCall, tr *traced) (time.Duration, error) {
	if c.res == nil {
		return 0, nil
	}
	slice := r.eng.SliceOf(c.opts.Departure)
	model := r.eng.SliceModel(slice)
	var coster hybrid.Coster = model
	if c.opts.TimeExpanded {
		var qs hybrid.QueryStats
		coster = r.eng.ModelSet().TimeExpandedCoster(c.opts.Departure, &qs)
	}
	t0 := time.Now()
	res, err := routing.PBR(r.eng.Graph(), coster, c.src, c.dst, c.opts)
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("routing.PBR: %w", err)
	}
	if !slices.Equal(res.Path, c.res.Path) || math.Float64bits(res.Prob) != math.Float64bits(c.res.Prob) {
		tr.pbrMismatch++
	}
	tr.searchMS = append(tr.searchMS, ms(d))
	tr.expansions = append(tr.expansions, float64(res.Expansions))
	tr.labels = append(tr.labels, float64(res.GeneratedLabels))
	if res.GeneratedLabels > 0 {
		g := float64(res.GeneratedLabels)
		tr.expanded = append(tr.expanded, float64(res.Expansions)/g)
		tr.prunedDom = append(tr.prunedDom, float64(res.PrunedDominance)/g)
		tr.prunedPiv = append(tr.prunedPiv, float64(res.PrunedPivot)/g)
		tr.prunedPot = append(tr.prunedPot, float64(res.PrunedPotential)/g)
	}
	ext := c.res.NumConvolved + c.res.NumEstimated
	tr.extends = append(tr.extends, float64(ext))
	if ext > 0 {
		tr.convolveFrac = append(tr.convolveFrac, float64(c.res.NumConvolved)/float64(ext))
	}
	if len(c.res.Path) > 1 && c.res.Dist != nil {
		t1 := time.Now()
		if _, err := hybrid.PathCost(model, c.res.Path); err != nil {
			return 0, fmt.Errorf("hybrid.PathCost: %w", err)
		}
		tr.extendUS = append(tr.extendUS, us(time.Since(t1))/float64(len(c.res.Path)-1))
		edge := model.InitialHist(c.res.Path[len(c.res.Path)-1])
		var dst hist.Hist
		t2 := time.Now()
		if err := hist.ConvolveInto(&dst, c.res.Dist, edge); err != nil {
			return 0, err
		}
		tr.convolveUS = append(tr.convolveUS, us(time.Since(t2)))
		tr.support = append(tr.support, float64(len(c.res.Dist.P)))
	}
	return d, nil
}

// timeBatchItems runs a batch's queries through Engine.RouteBatch, all
// of them (the server hands the engine only its cache misses), and
// records the per-item times.
func (r *runner) timeBatchItems(batch []int, tr *traced) {
	qs := make([]routing.BatchQuery, len(batch))
	for i, qi := range batch {
		q := r.in.Queries[qi]
		qs[i] = routing.BatchQuery{Source: graph.VertexID(q.Src), Dest: graph.VertexID(q.Dst),
			Opts: routing.Options{Budget: q.Budget, Departure: float64(q.Depart), MaxDuration: serveTimeout}}
	}
	for _, it := range r.eng.RouteBatch(context.Background(), qs, 0) {
		if it.Elapsed > 0 {
			tr.batchItemUS = append(tr.batchItemUS, us(it.Elapsed))
		}
	}
}

// foldCost times Ingestor.Ingest in-process on the drift stream, after
// seeding it like cmd/serve does, with drift detection off so no
// rebuild starts. It returns µs per trajectory, or nil without a stream.
func (r *runner) foldCost() ([]float64, error) {
	if len(r.drift) == 0 {
		return nil, nil
	}
	cfg := hybrid.DefaultConfig()
	cfg.Width, cfg.MinPairObs = serveWidth, serveMinObs
	in := ingest.New(r.eng, ingest.Config{Hybrid: cfg, Drift: ingest.DriftConfig{Window: -1}}, io.Discard)
	in.Seed(r.seedTrajs)
	var out []float64
	for lo := 0; lo < len(r.drift); lo += driftBatch {
		batch := r.drift[lo:min(lo+driftBatch, len(r.drift))]
		t0 := time.Now()
		acc, _ := in.Ingest(batch)
		if acc == 0 {
			return nil, errors.New("in-process ingest accepted nothing")
		}
		out = append(out, us(time.Since(t0))/float64(len(batch)))
	}
	return out, nil
}

// layerMetrics fills the per-layer table.
func (r *runner) layerMetrics(tr *traced, untraced []float64, foldUS []float64) {
	m := &r.layers
	sutP50 := quantile(append([]float64(nil), r.routeLat...), 0.5)
	if tr.pbrMismatch > 0 {
		r.failed += tr.pbrMismatch
		r.attempted += tr.pbrMismatch
		r.notes = append(r.notes, fmt.Sprintf("routing.PBR differed from the engine's answer on %d searches", tr.pbrMismatch))
	}

	// Gateway.
	gw := func(name string) float64 { return delta(r.before, r.after, []string{"gateway"}, name, nil) }
	batches := 0
	for i, o := range r.outs {
		if o.sent && r.in.Schedule[i].Kind == kindBatch {
			batches++
		}
	}
	subBatches := delta(r.before, r.after, nil, "http_requests_total", map[string]string{"endpoint": "/route/batch"})
	m.layer("gateway.self_p50_us", "us", quantile(tr.gwAll, 0.5), len(tr.gwAll))
	m.layer("gateway.self_p99_us", "us", quantile(tr.gwAll, 0.99), len(tr.gwAll))
	m.layer("gateway.batch_fanout", "1", ratio(subBatches, float64(batches)), batches)
	m.layer("gateway.failovers", "count", gw("gateway_failovers_total"), 1)
	m.layer("gateway.replica_errors", "count", gw("gateway_replica_errors_total"), 1)
	m.layer("gateway.ingest_retries", "count", gw("gateway_ingest_retries_total"), 1)
	m.layer("gateway.ingest_dropped", "count", gw("gateway_ingest_dropped_total"), 1)
	m.layer("gateway.cpu_s", "s", r.cpuGateway, 1)

	// Server.
	rep := func(name, cache string) float64 {
		return delta(r.before, r.after, nil, name, map[string]string{"cache": cache})
	}
	hits, misses := rep("cache_hits_total", "route"), rep("cache_misses_total", "route")
	phits, pmisses := rep("cache_hits_total", "pair"), rep("cache_misses_total", "pair")
	m.layer("server.self_p50_us", "us", quantile(tr.srvSelf, 0.5), len(tr.srvSelf))
	m.layer("server.hit_p50_us", "us", quantile(tr.srvHit, 0.5), len(tr.srvHit))
	m.layer("server.route_cache_hit_ratio", "1", ratio(hits, hits+misses), int(hits+misses))
	m.layer("server.pair_cache_hit_ratio", "1", ratio(phits, phits+pmisses), int(phits+pmisses))
	m.layer("server.cache_invalidations", "count", rep("cache_invalidations_total", "route")+rep("cache_invalidations_total", "pair"), 1)
	m.layer("server.resp_bytes_mean", "B", mean(r.respBytes), len(r.respBytes))
	m.layer("replica.cpu_s", "s", r.cpuReplicas, len(r.fl.replicas))

	// Engine.
	m.layer("engine.self_p50_us", "us", quantile(tr.engAll, 0.5), len(tr.engAll))
	m.layer("engine.batch_item_p50_us", "us", quantile(tr.batchItemUS, 0.5), len(tr.batchItemUS))
	m.layer("engine.swap_ms", "ms", median(tr.swapMS), len(tr.swapMS))

	// Routing.
	m.layer("routing.search_p50_ms", "ms", quantile(tr.searchMS, 0.5), len(tr.searchMS))
	m.layer("routing.search_p99_ms", "ms", quantile(tr.searchMS, 0.99), len(tr.searchMS))
	m.layer("routing.expansions_per_query", "count", mean(tr.expansions), len(tr.expansions))
	m.layer("routing.labels_per_query", "count", mean(tr.labels), len(tr.labels))
	m.layer("routing.expanded_per_generated", "1", mean(tr.expanded), len(tr.expanded))
	m.layer("routing.pruned_dominance_frac", "1", mean(tr.prunedDom), len(tr.prunedDom))
	m.layer("routing.pruned_pivot_frac", "1", mean(tr.prunedPiv), len(tr.prunedPiv))
	m.layer("routing.pruned_potential_frac", "1", mean(tr.prunedPot), len(tr.prunedPot))

	// Cost model and kernel.
	rebuilds := delta(r.before, r.after, nil, "ingest_rebuild_seconds_count", nil)
	m.layer("hybrid.extends_per_query", "count", mean(tr.extends), len(tr.extends))
	m.layer("hybrid.convolve_frac", "1", mean(tr.convolveFrac), len(tr.convolveFrac))
	m.layer("hybrid.extend_us", "us", quantile(tr.extendUS, 0.5), len(tr.extendUS))
	m.layer("hybrid.rebuild_s", "s", ratio(delta(r.before, r.after, nil, "ingest_rebuild_seconds_sum", nil), rebuilds), int(rebuilds))
	m.layer("hybrid.train_s", "s", r.fx.trainS, 1)
	m.layer("hist.convolve_us", "us", quantile(tr.convolveUS, 0.5), len(tr.convolveUS))
	m.layer("hist.support_buckets_mean", "count", mean(tr.support), len(tr.support))

	// Write path.
	ingN := 0
	if len(r.drift) > 0 {
		ingN = len(r.fl.replicas)
	}
	ing := func(name string) float64 { return delta(r.before, r.after, nil, name, nil) }
	m.layer("ingest.fold_us_per_traj", "us", quantile(foldUS, 0.5), len(foldUS))
	m.layer("ingest.accepted", "count", ing("ingest_accepted_total"), ingN)
	m.layer("ingest.rejected", "count", ing("ingest_rejected_total"), ingN)
	m.layer("ingest.drift_events", "count", ing("ingest_drift_events_total"), ingN)
	m.layer("ingest.rebuilds", "count", rebuilds, ingN)
	m.layer("ingest.rebuild_errors", "count", ing("ingest_rebuild_errors_total"), ingN)

	// Tracing honesty and the blocking path of /route.
	tracedP50, untracedP50 := quantile(tr.top, 0.5), quantile(untraced, 0.5)
	path := quantile(tr.gwSelf, 0.5) + quantile(tr.srvSelf, 0.5) + quantile(tr.engSelf, 0.5) + quantile(tr.search, 0.5)
	m.layer("obs.trace_overhead_frac", "1", ratio(tracedP50-untracedP50, untracedP50), len(untraced))
	m.layer("obs.traced_route_p50_ms", "ms", tracedP50/1000, len(tr.top))
	m.layer("obs.residual_frac", "1", ratio(tracedP50-path, tracedP50), len(tr.top))
	r.notes = append(r.notes, fmt.Sprintf(
		"blocking path of /route (p50 per layer, µs): gateway %.0f + server %.0f + engine %.0f + routing %.0f = %.0f; traced in-process route p50 %.0f, residual %.0f; fleet route_p50 %.0f",
		quantile(tr.gwSelf, 0.5), quantile(tr.srvSelf, 0.5), quantile(tr.engSelf, 0.5), quantile(tr.search, 0.5), path,
		tracedP50, tracedP50-path, sutP50*1000))
	r.notes = append(r.notes, fmt.Sprintf(
		"shares of the fleet's route_p50_ms: routing.search_p50_ms %.0f%%, gateway+server self p50 %.0f%%, routing on the blocking path %.0f%%",
		100*ratio(quantile(tr.searchMS, 0.5), sutP50),
		100*ratio((quantile(tr.gwSelf, 0.5)+quantile(tr.srvSelf, 0.5))/1000, sutP50),
		100*ratio(quantile(tr.search, 0.5)/1000, sutP50)))
}
