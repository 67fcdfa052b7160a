package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"stochroute/internal/traj"
)

// smallFixture is a cheap artifact recipe for the tests: the same grid
// and trajectories, and a short training run. With fewer trajectories
// the replicas retrain so fast that drift fires again while the ingest
// stream lasts, and answers from the superseded epochs pass the
// unchecked bound.
var smallFixture = [][]string{
	{"gennet", "-rows", "20", "-cols", "20", "-out", "net.srg"},
	{"gentraj", "-net", "net.srg", "-slices", "4", "-peak", "1", "-out", "trips.srt"},
	{"train", "-net", "net.srg", "-traj", "trips.srt", "-slices", "4",
		"-train-pairs", "300", "-test-pairs", "60", "-epochs", "5", "-out", "model.srhm"},
}

var (
	testBuild string
	testOnce  sync.Once
	testEnv   *env
	testFx    fixture
	testErr   error
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	testBuild = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// testFixture builds the serving binaries and the small fixture once.
func testFixture(t *testing.T) (*env, fixture) {
	t.Helper()
	testOnce.Do(func() {
		testEnv, testErr = newEnv("..", testBuild, 0, "test")
		if testErr == nil {
			testErr = testEnv.buildSUT()
		}
		if testErr == nil {
			testFx, testErr = testEnv.makeFixture(smallFixture)
		}
	})
	if testErr != nil {
		t.Fatal(testErr)
	}
	return testEnv, testFx
}

// TestInputsFromSeed checks that the same seed gives byte-identical
// inputs, drift stream included, and a different seed different ones.
func TestInputsFromSeed(t *testing.T) {
	e, fx := testFixture(t)
	eng, _, err := loadEngine(fx)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(workload string, seed uint64, name string) []byte {
		in, err := makeInputs(eng, workload, seed, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if in.DriftWalkSeed != 0 {
			path := filepath.Join(e.run, name)
			if _, err := makeDriftStream(e, fx, eng.Graph(), in.DriftWalkSeed, path); err != nil {
				t.Fatal(err)
			}
			stream, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw = append(raw, stream...)
		}
		return raw
	}
	for _, w := range workloads {
		a, b, c := gen(w, 1, "a.srt"), gen(w, 1, "b.srt"), gen(w, 2, "c.srt")
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave different inputs on two calls", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w)
		}
	}
}

// TestReferenceEpochs checks how drift-ingest judges a drift-slice
// answer from a swapped model: at the replica's final epoch, against
// its final answer; at an earlier epoch the swap watcher saw that
// replica serve, as unchecked if the request was sent before a poll
// showed the epoch replaced; at an epoch above the final one, one never
// seen, or one sent after it was replaced, against the final answer,
// which it cannot match.
func TestReferenceEpochs(t *testing.T) {
	_, fx := testFixture(t)
	eng, _, err := loadEngine(fx)
	if err != nil {
		t.Fatal(err)
	}
	w := &swapWatch{epochs: map[string]map[uint64]time.Duration{}, start: time.Now()}
	r := &runner{cfg: config{workload: "drift-ingest"}, eng: eng, orc: newOracle(eng), swap: w}
	span := int(traj.DaySeconds) / eng.NumSlices()
	q := query{Src: 0, Dst: 5, Budget: 100, Depart: driftSlice*span + 1}
	final := answer{Found: true, Path: []int{1, 2}, Prob: 0.5, ModelEpoch: 4, Slice: driftSlice}
	post := map[string]map[refKey]answer{"r1": {r.orc.key(q): final}}
	w.saw("r1", 1)
	w.saw("r1", 2)
	replaced := time.Since(w.start) + time.Second
	w.start = w.start.Add(-time.Second) // the next poll ends a second later
	w.saw("r1", 4)
	w.saw("r2", 3)
	for _, c := range []struct {
		epoch            uint64
		sent             time.Duration
		superseded, same bool
	}{
		{4, replaced + time.Hour, false, true},
		{2, replaced - time.Millisecond, true, false},
		{2, replaced + time.Millisecond, false, false},
		{3, 0, false, false},
		{5, 0, false, false},
	} {
		got := final
		got.ModelEpoch = c.epoch
		want, ok, superseded := r.reference(q, got, "r1", c.sent, post)
		if !ok || superseded != c.superseded || got.same(want) != c.same {
			t.Errorf("epoch %d sent at %v: reference ok=%v superseded=%v same=%v, want ok=true superseded=%v same=%v",
				c.epoch, c.sent, ok, superseded, got.same(want), c.superseded, c.same)
		}
	}
}

// TestSmokeEveryMetric runs each workload of BENCHMARK.json briefly,
// traced, and checks it passes its checks and reports exactly the
// metrics the file names: the end-to-end ones untraced, the per-layer
// ones traced.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the serving fleet for every workload")
	}
	_, _ = testFixture(t)
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	names := func(list []named) []string {
		var out []string
		for _, m := range list {
			out = append(out, m.Name)
			units[m.Name] = m.Unit
		}
		slices.Sort(out)
		return out
	}
	wantE2E, wantLayer := names(spec.EndToEnd), names(spec.PerLayer)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runBench(context.Background(), config{
				workload: w.Name, seed: 1, seconds: 3, trace: true,
				root: "..", build: testBuild, fixtureSteps: smallFixture,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 {
				t.Errorf("run not correct: %d of %d failed: %v", res.failed, res.attempted, res.notes)
			}
			for _, trace := range []bool{false, true} {
				res.trace = trace
				var buf bytes.Buffer
				if err := printReport(&buf, res); err != nil {
					t.Fatal(err)
				}
				lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
				var out struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
					t.Fatalf("last line is not the JSON summary: %v", err)
				}
				var got []string
				for name, m := range out.Metrics {
					got = append(got, name)
					if u, ok := units[name]; ok && u != m.Unit {
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, m.Unit, u)
					}
				}
				slices.Sort(got)
				want := wantE2E
				if trace {
					want = wantLayer
				}
				if !slices.Equal(got, want) {
					t.Errorf("trace=%v: metrics %v, BENCHMARK.json names %v", trace, got, want)
				}
			}
		})
	}
}
