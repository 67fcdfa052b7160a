package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"stochroute"
	"stochroute/internal/graph"
	"stochroute/internal/traj"
)

// Validity bounds of a run. A run past them is rejected, not reported.
const (
	// The generator's own lateness at p99 may reach lagShare of the
	// route p99 it reports, or lagFloor if that is larger; past it the
	// tail measures the generator, not the system, and the window is
	// rejected: its figures are dropped and it runs again on a freshly
	// started fleet, up to maxWindows times in all, and only while a
	// further window, taking as long as the last with a quarter to
	// spare, can still end within windowBudget of the run's start; that
	// leaves the checks and a traced run's ladder and replay time to
	// finish. When no window passes, the run is rejected.
	lagShare     = 0.1
	lagFloor     = 5 * time.Millisecond
	maxWindows   = 3
	windowBudget = 120 * time.Second
	// maxUncheckedShare bounds the share of drift-ingest /route answers
	// that come from a superseded drift-slice epoch, which no reference
	// checks (see reference); past it every such answer counts as failed.
	maxUncheckedShare = 0.05
	// postSwapWindow keeps drift-ingest reads going after the fleet has
	// swapped, so post-swap (cache-invalidated) reads are measured too.
	postSwapWindow = 2 * time.Second
	// swapPoll is the period at which drift-ingest polls /stats.
	swapPoll = 50 * time.Millisecond
	// settleTimeout bounds the wait for the replicas to settle on one
	// drift-slice epoch after the window.
	settleTimeout = 60 * time.Second
)

// runner holds one run's state.
type runner struct {
	ctx          context.Context
	e            *env
	fx           fixture
	cfg          config
	began        time.Time
	eng          *stochroute.Engine
	seedTrajs    []traj.Trajectory
	in           *inputs
	drift        []traj.Trajectory
	ingestBodies [][]byte
	gen          *loadgen
	fl           *fleet
	probe        probeQuery
	setups       []float64
	rejected     int // windows rejected for generator lateness
	orc          *oracle

	// The timed window.
	ops         []op
	outs        []outcome
	window      time.Duration
	before      scrape
	after       scrape
	cpuReplicas float64
	cpuGateway  float64
	swap        *swapWatch
	routeLat    []float64 // ms
	rssSamples  []float64 // MiB, summed over the fleet
	batchLat    []float64
	ackLat      []float64
	lags        []float64
	respBytes   []float64
	onTime      map[refKey]float64
	attempted   int
	failed      int
	completed   int
	notes       []string
	layers      metrics
}

func newRunner(ctx context.Context, e *env, fx fixture, cfg config) (*runner, error) {
	r := &runner{ctx: ctx, e: e, fx: fx, cfg: cfg, began: time.Now(), onTime: map[refKey]float64{}}
	var err error
	r.eng, r.seedTrajs, err = loadEngine(fx)
	if err != nil {
		return nil, fmt.Errorf("load engine: %w", err)
	}
	r.orc = newOracle(r.eng)
	r.in, err = makeInputs(r.eng, cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	if err := writeInputs(r.in, runPath(e, "inputs.json")); err != nil {
		return nil, err
	}
	if r.in.DriftWalkSeed != 0 {
		r.drift, err = makeDriftStream(e, fx, r.eng.Graph(), r.in.DriftWalkSeed, runPath(e, "drift.srt"))
		if err != nil {
			return nil, err
		}
		r.ingestBodies, err = ingestBatches(r.drift, driftBatch)
		if err != nil {
			return nil, err
		}
	}
	g := r.eng.Graph()
	src, dst := graph.VertexID(0), graph.VertexID(g.NumVertices()-1)
	opt, err := r.eng.OptimisticTime(src, dst)
	if err != nil {
		return nil, fmt.Errorf("probe query: %w", err)
	}
	r.probe = probeQuery{src: int(src), dst: int(dst), budget: 2 * opt}
	r.gen = newLoadgen(runtime.NumCPU())
	return r, nil
}

func (r *runner) close() {
	r.fl.stop()
	r.gen.close()
}

// execute runs the set-ups, the timed window, the checks and, on a
// traced run, the rate ladder and the layer breakdown.
func (r *runner) execute() error {
	for i := 0; i < setups; i++ {
		fl, s, err := launchFleet(r.e, r.fx, fleetReplicas, r.probe, fmt.Sprintf("setup%d", i))
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		r.setups = append(r.setups, s)
		if i < setups-1 {
			fl.stop()
		} else {
			r.fl = fl
		}
		if err := r.ctx.Err(); err != nil {
			return err
		}
	}
	if err := r.measure(); err != nil {
		return err
	}
	if err := r.check(); err != nil {
		return err
	}
	if r.cfg.trace {
		if err := r.ladder(); err != nil {
			return err
		}
		if err := r.traceLayers(); err != nil {
			return err
		}
	}
	return nil
}

// measure warms the fleet and runs the timed window until a window
// passes the generator's validity bounds, re-running a rejected window
// on a freshly started fleet (see lagFloor).
func (r *runner) measure() error {
	for attempt := 1; ; attempt++ {
		t0 := time.Now()
		if err := r.warm(); err != nil {
			return err
		}
		if err := r.timedWindow(); err != nil {
			return err
		}
		err := r.honest()
		if err == nil || !errors.Is(err, errLate) {
			return err
		}
		took := time.Since(t0)
		if attempt == maxWindows || time.Since(r.began)+took*5/4 > windowBudget {
			return fmt.Errorf("invalid run after %d windows: %w", attempt, err)
		}
		r.rejected++
		logf("window %d rejected (%v); running it again on a fresh fleet", attempt, err)
		r.notes = append(r.notes, fmt.Sprintf("window %d rejected: %v", attempt, err))
		r.fl.stop()
		if r.fl, _, err = launchFleet(r.e, r.fx, fleetReplicas, r.probe, fmt.Sprintf("rerun%d", attempt)); err != nil {
			return fmt.Errorf("relaunch after window %d: %w", attempt, err)
		}
	}
}

// errLate marks a window the generator could not keep on schedule.
var errLate = errors.New("generator late")

// warm sends every warm-up query once through the front before timing,
// so the route caches hold the hot set.
func (r *runner) warm() error {
	var wg sync.WaitGroup
	errs := make(chan error, len(r.in.Warm)) // sized to the number of sends
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if _, err := getBytes(r.in.Queries[i].url(r.fl.front)); err != nil {
					errs <- err
				}
			}
		}()
	}
	for _, i := range r.in.Warm {
		next <- i
	}
	close(next)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// buildOps turns a schedule into requests against the front.
func (r *runner) buildOps(sched []schedOp) ([]op, error) {
	ops := make([]op, len(sched))
	for i, s := range sched {
		o := op{due: s.due(), lane: s.Lane}
		switch s.Kind {
		case kindRoute:
			o.method, o.url = "GET", r.in.Queries[s.Query].url(r.fl.front)
		case kindBatch:
			type item struct {
				Source int     `json:"source"`
				Dest   int     `json:"dest"`
				Budget float64 `json:"budget_s"`
				Depart int     `json:"depart_s"`
			}
			var body struct {
				Queries []item `json:"queries"`
			}
			for _, qi := range s.Batch {
				q := r.in.Queries[qi]
				body.Queries = append(body.Queries, item{q.Src, q.Dst, q.Budget, q.Depart})
			}
			raw, err := json.Marshal(body)
			if err != nil {
				return nil, err
			}
			o.method, o.url, o.body = "POST", r.fl.front+"/route/batch", raw
		case kindIngest:
			o.method, o.url, o.body = "POST", r.fl.front+"/ingest", r.ingestBodies[s.Ingest]
		}
		ops[i] = o
	}
	return ops, nil
}

// ingestBatches encodes trajectories as /ingest bodies of n each.
func ingestBatches(trs []traj.Trajectory, n int) ([][]byte, error) {
	type wire struct {
		Edges  []graph.EdgeID `json:"edges"`
		Times  []float64      `json:"times"`
		Depart float64        `json:"depart"`
	}
	var out [][]byte
	for lo := 0; lo < len(trs); lo += n {
		var body struct {
			Trajectories []wire `json:"trajectories"`
		}
		for _, t := range trs[lo:min(lo+n, len(trs))] {
			body.Trajectories = append(body.Trajectories, wire{t.Edges, t.Times, t.Departure})
		}
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		out = append(out, raw)
	}
	return out, nil
}

// timedWindow runs the nominal schedule against the fleet, with CPU
// and counters read on both sides of it.
func (r *runner) timedWindow() error {
	var err error
	if r.ops, err = r.buildOps(r.in.Schedule); err != nil {
		return err
	}
	if r.before, err = r.fl.scrape(); err != nil {
		return err
	}
	cr0, cg0 := r.fl.cpuSeconds()
	steal0 := stealSeconds()
	ctx, cancel := context.WithCancel(r.ctx)
	defer cancel()
	start := time.Now()
	if r.cfg.workload == "drift-ingest" {
		r.swap = watchSwap(ctx, r.fl, start, time.Duration(r.cfg.seconds*float64(time.Second)), cancel)
	}
	rss := r.fl.sampleRSS(ctx)
	r.outs = r.gen.runFrom(r.ctx, ctx, r.ops, start)
	cancel()
	if r.swap != nil {
		<-r.swap.done
	}
	r.rssSamples = <-rss
	r.window = time.Since(start)
	cr1, cg1 := r.fl.cpuSeconds()
	r.cpuReplicas, r.cpuGateway = cr1-cr0, cg1-cg0
	r.notes = append(r.notes, fmt.Sprintf("timed window %.1f s, CPU steal by other guests %.2f s", r.window.Seconds(), stealSeconds()-steal0))
	if err := r.ctx.Err(); err != nil {
		return err
	}
	r.after, err = r.fl.scrape()
	return err
}

// honest rejects a window whose generator could not keep its schedule,
// or a run whose generator exceeded its connection budget.
func (r *runner) honest() error {
	r.lags = nil
	var lat []float64
	for i, o := range r.outs {
		if o.sent {
			r.lags = append(r.lags, ms(o.lag))
			if r.in.Schedule[i].Kind == kindRoute {
				lat = append(lat, ms(o.lat))
			}
		}
	}
	bound := max(ms(lagFloor), lagShare*quantile(lat, 0.99))
	if lag := quantile(r.lags, 0.99); lag > bound {
		return fmt.Errorf("%w: lag p99 %.2f ms exceeds %.2f ms", errLate, lag, bound)
	}
	if peak := r.gen.peak.Load(); peak > int64(runtime.NumCPU()) {
		return fmt.Errorf("invalid run: generator held %d connections at once, more than nproc=%d", peak, runtime.NumCPU())
	}
	if r.gen.workers > runtime.NumCPU() {
		return fmt.Errorf("invalid run: %d senders, more than nproc=%d", r.gen.workers, runtime.NumCPU())
	}
	return nil
}

// swapWatch follows the drift-ingest fleet through drift, rebuild and
// swap of slice 1 by polling each replica's /stats.
type swapWatch struct {
	firstDrift time.Duration // first poll showing slice 1's drift_events incremented; -1 = never
	allSwapped time.Duration // first poll with every replica serving a newer slice-1 epoch; -1 = never
	// epochs holds, per replica, every slice-1 epoch a poll showed it
	// serving, in the window or while settling after it, with the end
	// of the first poll that showed a newer epoch (-1 while none has).
	// Read it only once done is closed.
	epochs map[string]map[uint64]time.Duration
	start  time.Time
	done   chan struct{}
}

// saw records that a poll of replica, ending now, showed epoch.
func (w *swapWatch) saw(replica string, epoch uint64) {
	now := time.Since(w.start)
	m := w.epochs[replica]
	if m == nil {
		m = map[uint64]time.Duration{}
		w.epochs[replica] = m
	}
	if _, ok := m[epoch]; !ok {
		m[epoch] = -1
	}
	for e, until := range m {
		if e < epoch && until < 0 {
			m[e] = now
		}
	}
}

// live reports whether a request sent to replica at sent (from the
// window's start) could have been answered from epoch: a poll saw the
// replica serve it, and no poll that ended before sent showed a newer
// one.
func (w *swapWatch) live(replica string, epoch uint64, sent time.Duration) bool {
	until, ok := w.epochs[replica][epoch]
	return ok && (until < 0 || sent <= until)
}

const driftSlice = 1

func watchSwap(ctx context.Context, fl *fleet, start time.Time, minWindow time.Duration, stop func()) *swapWatch {
	w := &swapWatch{firstDrift: -1, allSwapped: -1, epochs: map[string]map[uint64]time.Duration{}, start: start, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(swapPoll)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			now := time.Since(start)
			swapped := 0
			for _, rep := range fl.replicas {
				var st struct {
					SliceEpochs []uint64 `json:"slice_epochs"`
					Ingest      struct {
						Slices []struct {
							DriftEvents uint64 `json:"drift_events"`
						} `json:"slices"`
					} `json:"ingest"`
				}
				if err := getJSON(rep.url+"/stats", &st); err != nil {
					continue
				}
				if len(st.Ingest.Slices) > driftSlice && st.Ingest.Slices[driftSlice].DriftEvents > 0 && w.firstDrift < 0 {
					w.firstDrift = now
				}
				if len(st.SliceEpochs) > driftSlice {
					w.saw(rep.name, st.SliceEpochs[driftSlice])
					if st.SliceEpochs[driftSlice] > 1 {
						swapped++
					}
				}
			}
			if swapped == len(fl.replicas) && w.allSwapped < 0 {
				w.allSwapped = now
			}
			if w.allSwapped >= 0 && now >= max(minWindow, w.allSwapped+postSwapWindow) {
				stop()
				return
			}
		}
	}()
	return w
}

// check evaluates every timed-window outcome: failures, latencies and
// the answers against the in-process engine (or, for answers from a
// swapped model, against the fleet's own post-window answers).
func (r *runner) check() error {
	var refs []query
	for i, o := range r.outs {
		s := r.in.Schedule[i]
		switch {
		case !o.sent:
		case s.Kind == kindRoute:
			refs = append(refs, r.in.Queries[s.Query])
		case s.Kind == kindBatch:
			for _, qi := range s.Batch {
				refs = append(refs, r.in.Queries[qi])
			}
		}
	}
	t0 := time.Now()
	if err := r.orc.prepare(refs); err != nil {
		return err
	}
	r.notes = append(r.notes, fmt.Sprintf("reference answers: %d distinct queries computed in process in %.1f s", len(r.orc.ref), time.Since(t0).Seconds()))
	post := map[string]map[refKey]answer{} // replica -> post-window answers of swapped-slice queries
	var err error
	if r.cfg.workload == "drift-ingest" {
		if post, err = r.postSwapAnswers(); err != nil {
			return err
		}
	}
	unchecked, routes := 0, 0 // answers from a superseded slice epoch; /route answers
	mismatch := func(what string, got, want answer) {
		r.failed++
		if len(r.notes) < 8 {
			r.notes = append(r.notes, fmt.Sprintf("mismatch %s: served %v, want %v", what, got, want))
		}
	}
	for i, o := range r.outs {
		if !o.sent {
			continue
		}
		s := r.in.Schedule[i]
		r.attempted++
		if !o.ok() {
			r.failed++
			msg := fmt.Sprintf("%s due at %v failed: status %d, error %v: %.200s", s.Kind, s.due(), o.status, o.err, o.body)
			logf("%s", msg)
			if len(r.notes) < 8 {
				r.notes = append(r.notes, msg)
			}
			continue
		}
		r.completed++
		switch s.Kind {
		case kindRoute:
			r.routeLat = append(r.routeLat, ms(o.lat))
			r.respBytes = append(r.respBytes, float64(len(o.body)))
			routes++
			q := r.in.Queries[s.Query]
			got, err := decodeRoute(o.body)
			if err != nil {
				mismatch("decode", got, answer{})
				continue
			}
			want, ok, superseded := r.reference(q, got, o.replica, o.sendAt, post)
			if superseded {
				unchecked++
			} else if !ok || !got.same(want) {
				mismatch(fmt.Sprintf("/route %+v", q), got, want)
				continue
			}
			if k := r.orc.key(q); !math.IsNaN(got.Prob) {
				if _, seen := r.onTime[k]; !seen {
					r.onTime[k] = got.Prob
				}
			}
		case kindBatch:
			r.batchLat = append(r.batchLat, ms(o.lat))
			items, err := decodeBatch(o.body)
			if err != nil || len(items) != len(s.Batch) {
				mismatch("batch shape", answer{}, answer{})
				continue
			}
			for k, qi := range s.Batch {
				want, ok := r.orc.answer(r.in.Queries[qi])
				if !ok || items[k].Error != "" || !items[k].same(want) {
					mismatch(fmt.Sprintf("/route/batch item %d", k), items[k], want)
					break
				}
			}
		case kindIngest:
			r.ackLat = append(r.ackLat, ms(o.lat))
			var ack struct {
				Accepted, Dropped int
			}
			if err := json.Unmarshal(o.body, &ack); err != nil || ack.Dropped > 0 || ack.Accepted == 0 {
				r.failed++
				r.notes = append(r.notes, fmt.Sprintf("ingest ack %s", o.body))
			}
		}
	}
	if unchecked > 0 {
		share := float64(unchecked) / float64(routes)
		r.notes = append(r.notes, fmt.Sprintf("%d of %d /route answers (%.3f) came from a slice epoch the replica swapped out again before the window ended; no reference remains to check them", unchecked, routes, share))
		if share > maxUncheckedShare {
			r.failed += unchecked
			r.notes = append(r.notes, fmt.Sprintf("unchecked share %.3f exceeds %.2f: those answers count as failed", share, maxUncheckedShare))
		}
	}
	if r.cfg.workload == "drift-ingest" {
		r.checkDrift(post)
	}
	return nil
}

// reference is the answer a served route must equal: the in-process
// engine's for the epoch-1 model, or, for a slice a swap has moved
// past epoch 1, the same replica's answer after the window. An answer
// from a slice epoch the replica has since swapped out again (drift
// can fire once more while the stream lasts) has no reference left:
// superseded reports it, but only for an epoch below the replica's
// final one that the swap watcher saw the replica serve and had not
// yet seen it replace when the request was sent. Any other epoch gets
// the final answer as its reference, and so fails.
func (r *runner) reference(q query, got answer, replica string, sent time.Duration, post map[string]map[refKey]answer) (want answer, ok, superseded bool) {
	want, ok = r.orc.answer(q)
	if r.cfg.workload != "drift-ingest" || got.ModelEpoch <= 1 || got.Slice != driftSlice {
		return want, ok, false
	}
	want, ok = post[replica][r.orc.key(q)]
	superseded = ok && got.ModelEpoch < want.ModelEpoch && r.swap.live(replica, got.ModelEpoch, sent)
	return want, ok, superseded
}

// postSwapAnswers queries every replica directly, after the window,
// for every distinct swapped-slice query the window sent, once the
// replicas have settled.
func (r *runner) postSwapAnswers() (map[string]map[refKey]answer, error) {
	r.settleSwap()
	keys := map[refKey]query{}
	for i, o := range r.outs {
		s := r.in.Schedule[i]
		if o.sent && s.Kind == kindRoute {
			q := r.in.Queries[s.Query]
			if r.eng.SliceOf(float64(q.Depart)) == driftSlice {
				keys[r.orc.key(q)] = q
			}
		}
	}
	out := map[string]map[refKey]answer{}
	for _, rep := range r.fl.replicas {
		out[rep.name] = map[refKey]answer{}
		for k, q := range keys {
			body, err := getBytes(q.url(rep.url))
			if err != nil {
				return nil, fmt.Errorf("post-window query on %s: %w", rep.name, err)
			}
			a, err := decodeRoute(body)
			if err != nil {
				return nil, err
			}
			out[rep.name][k] = a
		}
	}
	return out, nil
}

// settleSwap waits, for up to settleTimeout, until no replica is
// rebuilding the drift slice and all serve it at the same epoch, so
// that a rebuild still running when the window ends cannot make the
// post-window answers disagree.
func (r *runner) settleSwap() {
	deadline := time.Now().Add(settleTimeout)
	for time.Now().Before(deadline) {
		epochs := map[uint64]bool{}
		busy := false
		for _, rep := range r.fl.replicas {
			var st struct {
				SliceEpochs []uint64 `json:"slice_epochs"`
				Ingest      struct {
					Slices []struct {
						Rebuilding bool `json:"rebuilding"`
					} `json:"slices"`
				} `json:"ingest"`
			}
			if err := getJSON(rep.url+"/stats", &st); err != nil || len(st.SliceEpochs) <= driftSlice || len(st.Ingest.Slices) <= driftSlice {
				busy = true
				break
			}
			epochs[st.SliceEpochs[driftSlice]] = true
			r.swap.saw(rep.name, st.SliceEpochs[driftSlice])
			busy = busy || st.Ingest.Slices[driftSlice].Rebuilding
		}
		if !busy && len(epochs) == 1 {
			return
		}
		time.Sleep(swapPoll)
	}
}

// checkDrift applies the drift-ingest run checks: the fleet swapped
// slice 1, every replica rebuilt, and the replicas agree after the
// swap.
func (r *runner) checkDrift(post map[string]map[refKey]answer) {
	fail := func(format string, args ...any) {
		r.attempted++
		r.failed++
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
	if r.swap.firstDrift < 0 || r.swap.allSwapped < 0 {
		fail("drift-ingest: no drift-triggered swap of slice %d within the run", driftSlice)
	}
	for _, rep := range r.fl.replicas {
		if n := delta(r.before, r.after, []string{rep.name}, "ingest_rebuild_seconds_count", nil); n < 1 {
			fail("drift-ingest: replica %s recorded no rebuild", rep.name)
		}
	}
	ref := r.fl.replicas[0].name
	var keys []refKey
	for k := range post[ref] {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
	for _, k := range keys {
		want := post[ref][k]
		if want.ModelEpoch <= 1 {
			fail("drift-ingest: %s still serves slice %d at epoch %d after the window", ref, driftSlice, want.ModelEpoch)
			break
		}
		for _, rep := range r.fl.replicas[1:] {
			r.attempted++
			if got := post[rep.name][k]; !got.same(want) || math.Float64bits(got.MeanS) != math.Float64bits(want.MeanS) {
				r.failed++
				if len(r.notes) < 12 {
					r.notes = append(r.notes, fmt.Sprintf("replicas disagree after the swap on %+v: %s %v, %s %v", k, ref, want, rep.name, got))
				}
			}
		}
	}
}

// processInfo lists each process of the system under test with its
// GOMAXPROCS.
func (r *runner) processInfo() []string {
	var out []string
	for _, p := range r.fl.procs() {
		out = append(out, fmt.Sprintf("%s GOMAXPROCS=%s", p.name, p.gomaxprocs()))
	}
	return out
}

// finish assembles the result.
func (r *runner) finish() *result {
	res := &result{workload: r.cfg.workload, trace: r.cfg.trace, attempted: r.attempted, failed: r.failed, notes: r.notes}
	res.correct = r.failed == 0 && r.attempted > 0
	if res.attempted == 0 {
		res.attempted = 1
		res.failed = 1
	}
	m := &res.metrics
	window := r.window.Seconds()
	m.e2e("setup_s", "s", median(r.setups), len(r.setups))
	m.e2e("route_p50_ms", "ms", quantile(r.routeLat, 0.50), len(r.routeLat))
	m.e2e("route_p99_ms", "ms", quantile(r.routeLat, 0.99), len(r.routeLat))
	var probs []float64
	for _, p := range r.onTime {
		probs = append(probs, p)
	}
	m.e2e("on_time_prob_mean", "1", mean(probs), len(probs))
	m.e2e("cpu_ms_per_op", "ms", 1000*(r.cpuReplicas+r.cpuGateway)/math.Max(float64(r.completed), 1), r.completed)
	m.e2e("rss_mb", "MiB", mean(r.rssSamples), len(r.rssSamples))
	m.layer("rss_peak_mb", "MiB", r.fl.peakRSSMiB(), len(r.fl.procs()))

	// Workload-specific end-to-end numbers, reported with the layers.
	m.layer("failed_frac", "1", ratio(float64(r.failed), float64(r.attempted)), r.attempted)
	var rss []string
	for _, p := range r.fl.procs() {
		rss = append(rss, fmt.Sprintf("%s %.1f", p.name, p.peakRSSMiB()))
	}
	res.notes = append(res.notes, "peak RSS MiB: "+strings.Join(rss, ", "))
	m.layer("batch_p50_ms", "ms", quantile(r.batchLat, 0.50), len(r.batchLat))
	m.layer("batch_p99_ms", "ms", quantile(r.batchLat, 0.99), len(r.batchLat))
	m.layer("ingest_ack_p50_ms", "ms", quantile(r.ackLat, 0.50), len(r.ackLat))
	m.layer("ingest_ack_p90_ms", "ms", quantile(r.ackLat, 0.90), len(r.ackLat))
	swapS, swapN := 0.0, 0
	if r.swap != nil && r.swap.allSwapped >= 0 && r.swap.firstDrift >= 0 {
		swapS, swapN = (r.swap.allSwapped - r.swap.firstDrift).Seconds(), 1
	}
	m.layer("swap_s", "s", swapS, swapN)
	m.layer("loadgen.lag_p99_ms", "ms", quantile(r.lags, 0.99), len(r.lags))
	m.layer("loadgen.sent", "count", float64(len(r.lags)), len(r.lags))
	m.layer("loadgen.window_s", "s", window, 1)
	m.layer("loadgen.windows_rejected", "count", float64(r.rejected), r.rejected+1)
	res.metrics.list = append(res.metrics.list, r.layers.list...)
	return res
}
