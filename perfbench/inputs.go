package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"stochroute"
	"stochroute/internal/graph"
	"stochroute/internal/hybrid"
	"stochroute/internal/rng"
	"stochroute/internal/traj"
)

// query is one routing request as the system under test receives it.
type query struct {
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	Budget float64 `json:"budget_s"`
	Depart int     `json:"depart_s"`
	TE     bool    `json:"time_expanded,omitempty"`
}

func (q query) url(base string) string {
	u := fmt.Sprintf("%s/route?source=%d&dest=%d&budget=%s&depart=%d", base, q.Src, q.Dst,
		strconv.FormatFloat(q.Budget, 'g', -1, 64), q.Depart)
	if q.TE {
		u += "&time_expanded=true"
	}
	return u
}

// Operation kinds of a schedule.
const (
	kindRoute  = "route"
	kindBatch  = "batch"
	kindIngest = "ingest"
)

// schedOp is one operation of a workload's open-loop schedule.
type schedOp struct {
	DueUS  int64  `json:"due_us"`
	Kind   string `json:"kind"`
	Query  int    `json:"q,omitempty"`     // route: index into Queries
	Batch  []int  `json:"batch,omitempty"` // batch: indices into Queries
	Ingest int    `json:"ingest,omitempty"`
	Lane   int    `json:"lane,omitempty"` // sender lane: time-expanded searches get their own
}

func (o schedOp) due() time.Duration { return time.Duration(o.DueUS) * time.Microsecond }

// inputs is everything a run sends, made from the seed alone (and the
// fixture's network and model, which fix the optimistic travel times
// the budgets derive from).
type inputs struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	RateQPS  float64   `json:"rate_qps"`
	Queries  []query   `json:"queries"`
	Warm     []int     `json:"warm,omitempty"`
	Schedule []schedOp `json:"schedule"`
	// Ladder holds one schedule per rung of the rate ladder (traced
	// runs only), each drawing fresh queries after Queries' nominal ones.
	Ladder []ladderStep `json:"ladder,omitempty"`
	// DriftWalkSeed seeds the congested ingest stream (drift-ingest).
	DriftWalkSeed uint64 `json:"drift_walk_seed,omitempty"`
}

type ladderStep struct {
	RateQPS  float64   `json:"rate_qps"`
	Schedule []schedOp `json:"schedule"`
}

// Workload shapes. Rates are requests per second of the open loop.
// hotRate and driftReadRate are a quarter of the max_rate_qps their
// workloads' traced rate ladders measure; the mix fractions are
// choices, not measurements of real traffic.
// Budgets are budgetFactor times the optimistic travel time: at the
// 1.35 of cmd/loadgen's default, the fixture's models give on-time
// probabilities near 0.01, too close to zero to tell answers apart.
const (
	budgetFactor   = 1.8
	hotRate        = 240.0
	hotPairs       = 300
	hotLoKm        = 0.3
	hotHiKm        = 1.0
	hotZipfS       = 1.0
	hotTEFrac      = 0.05
	hotBatchFrac   = 0.1
	batchSize      = 16
	driftReadRate  = 40.0
	driftPairs     = 350 // in four slices: 1400 queries, 47 s of first reads
	driftRepeat    = 4   // every driftRepeat-th read repeats an earlier one
	driftLoKm      = 0.3
	driftHiKm      = 0.8
	driftTrajs     = 4000
	driftBatch     = 25
	driftPostRate  = 20.0 // batches per second: 500 trajectories per second
	driftHorizonS  = 90   // reads are scheduled this far and stop once the swap has settled
	ladderStepSecs = 2.0
)

// Rate ladders, as multiples of the nominal rate, for max_rate_qps.
var ladderFactors = map[string][]float64{
	"hot-fleet":    {1, 2, 4, 6, 8, 12},
	"drift-ingest": {1, 2, 4, 6, 8},
}

// populationSeed fixes the route population every workload draws
// from: which origin-destination pairs exist and what they cost to
// search. Search cost is heavy-tailed (a few pairs cost ten times the
// median), so drawing the pairs from the run seed would make the tail
// metrics measure which pairs were drawn rather than the code. The run
// seed draws everything else: arrival times, order, the request mix,
// Zipf picks and the drift stream.
const populationSeed = 20200420

// makeInputs derives a workload's inputs from the seed.
func makeInputs(eng *stochroute.Engine, workload string, seed uint64, seconds float64, ladder bool) (*inputs, error) {
	r := rng.New(seed).Split(workload)
	pop := rng.New(populationSeed).Split(workload)
	in := &inputs{Workload: workload, Seed: seed}
	switch workload {
	case "hot-fleet":
		in.RateQPS = hotRate
		hot, err := uniquePairs(eng, pop.Split("pairs"), hotLoKm, hotHiKm, hotPairs, nil)
		if err != nil {
			return nil, err
		}
		dep := pop.Split("depart")
		for i := range hot {
			hot[i].Depart = dep.Intn(int(traj.DaySeconds))
		}
		// Queries: the plain hot pairs, then the same pairs time-expanded.
		in.Queries = append(in.Queries, hot...)
		for _, q := range hot {
			q.TE = true
			in.Queries = append(in.Queries, q)
		}
		for i := range hot {
			in.Warm = append(in.Warm, i)
		}
		rank := pop.Split("rank").Perm(len(hot))
		cdf := zipfCDF(len(hot), hotZipfS)
		pick := func(g *rng.RNG) int { return rank[searchCDF(cdf, g.Float64())] }
		mix := r.Split("mix")
		in.Schedule = hotSchedule(r.Split("arrivals"), mix, pick, rank, hotRate, seconds)
		if ladder {
			for _, f := range ladderFactors[workload] {
				rate := hotRate * f
				in.Ladder = append(in.Ladder, ladderStep{RateQPS: rate,
					Schedule: hotSchedule(r.Split(fmt.Sprintf("ladder-%g", f)), mix, pick, rank, rate, ladderStepSecs)})
			}
		}
	case "drift-ingest":
		in.RateQPS = driftReadRate
		pairs, err := uniquePairs(eng, pop.Split("pairs"), driftLoKm, driftHiKm, driftPairs, nil)
		if err != nil {
			return nil, err
		}
		// Every pair is asked once in each slice, at a departure the
		// population fixes. Reads walk the whole set in an order drawn
		// from the seed, so each run searches nearly the same set, for
		// the reason populationSeed gives. Every
		// driftRepeat-th read instead repeats a random earlier read: a
		// cache hit, or, for slice 1 after the swap, a stale entry the
		// server must invalidate.
		nSlices := eng.NumSlices()
		span := int(traj.DaySeconds) / nSlices
		dep := pop.Split("depart")
		for _, q := range pairs {
			for s := 0; s < nSlices; s++ {
				q.Depart = s*span + dep.Intn(span)
				in.Queries = append(in.Queries, q)
			}
		}
		order := r.Split("order").Perm(len(in.Queries))
		in.DriftWalkSeed = r.Split("walk").Uint64() >> 1
		arr, rep := r.Split("arrivals"), r.Split("repeat")
		var reads []schedOp
		// Reads are evenly spaced, for the reason spacedRoutes gives.
		for k, t := 0, arr.Float64()/driftReadRate; t < driftHorizonS; t += 1 / driftReadRate {
			var q int
			if n := len(reads); n%driftRepeat == driftRepeat-1 {
				q = reads[rep.Intn(n)].Query
			} else {
				q, k = order[k%len(order)], k+1
			}
			reads = append(reads, schedOp{DueUS: int64(t * 1e6), Kind: kindRoute, Query: q})
		}
		var posts []schedOp
		for k := 0; k < driftTrajs/driftBatch; k++ {
			posts = append(posts, schedOp{DueUS: int64(float64(k) / driftPostRate * 1e6), Kind: kindIngest, Ingest: k})
		}
		in.Schedule = mergeByDue(reads, posts)
		if ladder {
			if err := driftLadder(eng, in, pairs, pop.Split("ladder"), r.Split("ladder")); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return in, nil
}

// driftLadder appends the drift-ingest rate ladder: reads only, of
// pairs in the same distance band that the window never asks, each
// once at a departure the population fixes, so every read is a
// search, as most of the window's reads are.
func driftLadder(eng *stochroute.Engine, in *inputs, window []query, pop, r *rng.RNG) error {
	n := 0
	for _, f := range ladderFactors["drift-ingest"] {
		n += int(math.Ceil(driftReadRate * f * ladderStepSecs))
	}
	exclude := make(map[[2]int]bool, len(window))
	for _, q := range window {
		exclude[[2]int{q.Src, q.Dst}] = true
	}
	fresh, err := uniquePairs(eng, pop.Split("pairs"), driftLoKm, driftHiKm, n, exclude)
	if err != nil {
		return err
	}
	dep := pop.Split("depart")
	for _, f := range ladderFactors["drift-ingest"] {
		rate := driftReadRate * f
		k := int(math.Ceil(rate * ladderStepSecs))
		in.Ladder = append(in.Ladder, ladderStep{RateQPS: rate, Schedule: spacedRoutes(r, rate, len(in.Queries), k)})
		for _, q := range fresh[:k] {
			q.Depart = dep.Intn(int(traj.DaySeconds))
			in.Queries = append(in.Queries, q)
		}
		fresh = fresh[k:]
	}
	return nil
}

// uniquePairs draws n distinct (source, dest) pairs in the distance
// band, none of them in exclude, each with the budget budgetFactor ×
// its optimistic travel time.
func uniquePairs(eng *stochroute.Engine, r *rng.RNG, loKm, hiKm float64, n int, exclude map[[2]int]bool) ([]query, error) {
	seen := make(map[[2]int]bool, n)
	var out []query
	for attempt := 0; len(out) < n; attempt++ {
		if attempt > 50 {
			return nil, fmt.Errorf("only %d distinct %.1f-%.1f km pairs, want %d", len(out), loKm, hiKm, n)
		}
		cands, err := eng.SampleQueries(loKm, hiKm, n-len(out), r.Uint64())
		if err != nil {
			return nil, err
		}
		for _, c := range cands {
			key := [2]int{int(c.Source), int(c.Dest)}
			if seen[key] || exclude[key] || len(out) == n {
				continue
			}
			opt, err := eng.OptimisticTime(c.Source, c.Dest)
			if err != nil || opt <= 0 || math.IsInf(opt, 0) {
				continue
			}
			seen[key] = true
			out = append(out, query{Src: key[0], Dst: key[1], Budget: budgetFactor * opt})
		}
	}
	return out, nil
}

// spacedRoutes schedules n route requests for queries first..first+n
// evenly at rate, from a random phase. Searches have a heavy-tailed
// cost and the generator few senders, so Poisson bursts would make
// the tail measure which heavy searches happened to arrive together.
func spacedRoutes(r *rng.RNG, rate float64, first, n int) []schedOp {
	out := make([]schedOp, n)
	t := r.Float64() / rate
	for i := range out {
		out[i] = schedOp{DueUS: int64(t * 1e6), Kind: kindRoute, Query: first + i}
		t += 1 / rate
	}
	return out
}

// hotSchedule draws the hot-fleet mix: a Poisson stream of plain
// /route on a Zipf-chosen hot pair or /route/batch of batchSize
// Zipf-chosen pairs, and beside it time-expanded requests, evenly
// spaced and on their own sender lane for the reason spacedRoutes
// gives. Time-expanded answers are never cached, so each is a search;
// they go to the most popular pairs (byRank, most popular first), each
// once per pass, in an order drawn from the seed, so the tail measures
// the code rather than which pairs a draw favoured.
func hotSchedule(arr, mix *rng.RNG, pick func(*rng.RNG) int, byRank []int, rate, seconds float64) []schedOp {
	var out, te []schedOp
	cached := rate * (1 - hotTEFrac)
	for t := arr.Exponential(cached); t < seconds; t += arr.Exponential(cached) {
		op := schedOp{DueUS: int64(t * 1e6), Kind: kindRoute}
		if mix.Float64() < hotBatchFrac/(1-hotTEFrac) {
			op.Kind = kindBatch
			for k := 0; k < batchSize; k++ {
				op.Batch = append(op.Batch, pick(mix))
			}
		} else {
			op.Query = pick(mix)
		}
		out = append(out, op)
	}
	step := 1 / (rate * hotTEFrac)
	for t := arr.Float64() * step; t < seconds; t += step {
		te = append(te, schedOp{DueUS: int64(t * 1e6), Kind: kindRoute, Lane: 1})
	}
	pairs := make([]int, len(te))
	for k := range pairs {
		pairs[k] = byRank[k%len(byRank)]
	}
	mix.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	for k := range te {
		te[k].Query = len(byRank) + pairs[k]
	}
	return mergeByDue(out, te)
}

func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func mergeByDue(a, b []schedOp) []schedOp {
	out := make([]schedOp, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		if len(b) == 0 || len(a) > 0 && a[0].DueUS <= b[0].DueUS {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return out
}

// writeInputs stores the inputs as the run's inputs.json.
func writeInputs(in *inputs, path string) error {
	raw, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// makeDriftStream writes the congested AM-peak ingest stream with
// cmd/gentraj and reads it back, in posting order.
func makeDriftStream(e *env, fx fixture, g *graph.Graph, walkSeed uint64, path string) ([]traj.Trajectory, error) {
	cmd := exec.Command(e.binPath("gentraj"), "-net", fx.net(), "-n", strconv.Itoa(driftTrajs),
		"-slices", "4", "-peak", "1", "-slice-weights", "0,1,0,0", "-congestion", "2",
		"-walk-seed", strconv.FormatUint(walkSeed, 10), "-out", path)
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("gentraj: %w\n%s", err, out)
	}
	return readTrajectories(path, g)
}

func readTrajectories(path string, g *graph.Graph) ([]traj.Trajectory, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return traj.ReadTrajectoryStream(fh, g)
}

// loadEngine assembles an in-process engine from the fixture exactly
// as cmd/serve does with its default -width and -min-obs.
func loadEngine(fx fixture) (*stochroute.Engine, []traj.Trajectory, error) {
	fh, err := os.Open(fx.net())
	if err != nil {
		return nil, nil, err
	}
	g, err := graph.Read(fh)
	fh.Close()
	if err != nil {
		return nil, nil, err
	}
	trs, err := readTrajectories(fx.traj(), g)
	if err != nil {
		return nil, nil, err
	}
	mf, err := os.Open(fx.model())
	if err != nil {
		return nil, nil, err
	}
	set, err := hybrid.ReadModelSet(mf)
	mf.Close()
	if err != nil {
		return nil, nil, err
	}
	eng, err := stochroute.NewEngineWithModelSet(g, trs, serveWidth, serveMinObs, set)
	return eng, trs, err
}

// cmd/serve's -width and -min-obs defaults.
const (
	serveWidth  = 2
	serveMinObs = 20
)

func runPath(e *env, name string) string { return filepath.Join(e.run, name) }
