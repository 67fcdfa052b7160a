package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int  // samples behind the value (0 = not applicable on this workload)
	E2E   bool // end-to-end metric (else per-layer)
}

type metrics struct{ list []metric }

func (m *metrics) e2e(name, unit string, v float64, n int) {
	m.list = append(m.list, metric{Name: name, Unit: unit, Value: v, N: n, E2E: true})
}

func (m *metrics) layer(name, unit string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v, n = 0, 0
	}
	m.list = append(m.list, metric{Name: name, Unit: unit, Value: v, N: n})
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// result is a finished run.
type result struct {
	workload  string
	trace     bool
	correct   bool
	attempted int
	failed    int
	notes     []string
	machine   machine
	procs     []string // per-process GOMAXPROCS lines
	metrics   metrics
}

// printReport writes the human-readable table and then, as the last
// line, the JSON summary holding the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run).
func printReport(w io.Writer, r *result) error {
	fmt.Fprintf(w, "workload %s  trace=%v  correct=%v  attempted=%d  failed=%d\n",
		r.workload, r.trace, r.correct, r.attempted, r.failed)
	fmt.Fprintf(w, "machine  nproc=%d  cpu=%q  go=%s  source=%s\n",
		r.machine.NProc, r.machine.CPUModel, r.machine.GoVersion, r.machine.Source)
	for _, p := range r.procs {
		fmt.Fprintf(w, "process  %s\n", p)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note     %s\n", n)
	}
	fmt.Fprintf(w, "%-32s %14s  %-7s %7s\n", "metric", "value", "unit", "n")
	for _, m := range r.metrics.list {
		kind := "layer"
		if m.E2E {
			kind = "e2e"
		}
		n := fmt.Sprint(m.N)
		if m.N == 0 {
			n = "n/a"
		}
		fmt.Fprintf(w, "%-32s %14.6g  %-7s %7s  %s\n", m.Name, m.Value, m.Unit, n, kind)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]jm{}}
	for _, m := range r.metrics.list {
		if m.E2E != r.trace {
			out.Metrics[m.Name] = jm{m.Value, m.Unit}
		}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, strings.TrimSpace(string(raw)))
	return err
}
