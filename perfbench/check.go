package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"stochroute"
	"stochroute/internal/graph"
	"stochroute/internal/routing"
)

// answer is the part of a /route response (or /route/batch item) the
// correctness gate compares.
type answer struct {
	Found      bool    `json:"found"`
	Complete   bool    `json:"complete"`
	Prob       float64 `json:"prob"`
	MeanS      float64 `json:"mean_s"`
	Path       []int   `json:"path"`
	ModelEpoch uint64  `json:"model_epoch"`
	Slice      int     `json:"slice"`
	Cached     bool    `json:"cached"`
	Error      string  `json:"error"`
}

// same reports whether two answers agree on path, probability bits and
// slice epoch.
func (a answer) same(b answer) bool {
	return a.Found == b.Found && slices.Equal(a.Path, b.Path) &&
		math.Float64bits(a.Prob) == math.Float64bits(b.Prob) && a.ModelEpoch == b.ModelEpoch
}

func (a answer) String() string {
	return fmt.Sprintf("found=%v prob=%v epoch=%d path=%d edges", a.Found, a.Prob, a.ModelEpoch, len(a.Path))
}

// refKey identifies one reference computation. A plain query's answer
// depends on its departure only through the slice; a time-expanded
// one on the exact departure.
type refKey struct {
	src, dst int
	budget   uint64
	depart   int // slice for plain queries
	te       bool
}

// oracle answers queries with an in-process engine loaded from the
// same artifacts as the fleet, memoised per distinct query.
type oracle struct {
	eng *stochroute.Engine
	mu  sync.Mutex
	ref map[refKey]answer
}

func newOracle(eng *stochroute.Engine) *oracle {
	return &oracle{eng: eng, ref: map[refKey]answer{}}
}

func (o *oracle) key(q query) refKey {
	k := refKey{src: q.Src, dst: q.Dst, budget: math.Float64bits(q.Budget), te: q.TE, depart: q.Depart}
	if !q.TE {
		k.depart = o.eng.SliceOf(float64(q.Depart))
	}
	return k
}

// prepare computes the reference answers of qs in parallel.
func (o *oracle) prepare(qs []query) error {
	todo := map[refKey]query{}
	for _, q := range qs {
		k := o.key(q)
		o.mu.Lock()
		_, done := o.ref[k]
		o.mu.Unlock()
		if !done {
			todo[k] = q
		}
	}
	work := make(chan query, len(todo)) // sized to the number of sends
	for _, q := range todo {
		work <- q
	}
	close(work)
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range work {
				a, err := o.compute(q)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					continue
				}
				o.mu.Lock()
				o.ref[o.key(q)] = a
				o.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

func (o *oracle) compute(q query) (answer, error) {
	res, err := o.eng.RouteCtx(context.Background(), graph.VertexID(q.Src), graph.VertexID(q.Dst), routing.Options{
		Budget: q.Budget, Departure: float64(q.Depart), TimeExpanded: q.TE, MaxDuration: serveTimeout,
	})
	if err != nil {
		return answer{}, fmt.Errorf("reference %+v: %w", q, err)
	}
	a := answer{Found: res.Found, Complete: res.Complete, Prob: res.Prob, ModelEpoch: res.ModelEpoch, Slice: res.Slice}
	for _, e := range res.Path {
		a.Path = append(a.Path, int(e))
	}
	return a, nil
}

// cmd/serve's default -timeout, the search limit of every request.
const serveTimeout = 10 * time.Second

func (o *oracle) answer(q query) (answer, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	a, ok := o.ref[o.key(q)]
	return a, ok
}

// decodeRoute and decodeBatch decode the answers in a /route or
// /route/batch response body.
func decodeRoute(body []byte) (answer, error) {
	var a answer
	err := json.Unmarshal(body, &a)
	return a, err
}

func decodeBatch(body []byte) ([]answer, error) {
	var b struct {
		Results []answer `json:"results"`
	}
	err := json.Unmarshal(body, &b)
	return b.Results, err
}
