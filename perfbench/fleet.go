package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stochroute/internal/obs"
)

// proc is one process of the system under test.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{}
	err  error
}

// startProc launches bin with args under the SCHED_IDLE policy
// (chrt(1) --idle), logging to logPath. The kernel preempts an idle
// policy task as soon as a normal one wakes, so when the serving
// processes keep every CPU busy (retraining does) the generator still
// sends on time; it takes little CPU when it does, and the serving
// processes share the rest as before. The child is killed if the
// benchmark dies before stopping it.
func startProc(name, bin string, args []string, logPath string) (*proc, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("chrt", append([]string{"--idle", "0", bin}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logFile.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to shut down gracefully and waits until it
// has exited, killing it after a grace period.
func (p *proc) stop() {
	if p == nil || p.exited() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux platform Go supports.
const clockTicks = 100

// cpuSeconds is the process's user+system CPU time so far.
func (p *proc) cpuSeconds() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks
}

// statusField reads one "Key: value" line of /proc/<pid>/status.
func statusField(pid int, key string) string {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func (p *proc) peakRSSMiB() float64 { return p.memMiB("VmHWM") }

// rssMiB is the process's current resident set (VmRSS).
func (p *proc) rssMiB() float64 { return p.memMiB("VmRSS") }

func (p *proc) memMiB(field string) float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(statusField(p.cmd.Process.Pid, field), " kB"), 64)
	return kb / 1024
}

// freePort reserves an ephemeral loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// fleet is the running system under test: replicas and the gateway
// fronting them.
type fleet struct {
	replicas []*proc
	gateway  *proc
	front    string // base URL the workload talks to
}

func (f *fleet) procs() []*proc {
	return append(slices.Clone(f.replicas), f.gateway)
}

func (f *fleet) stop() {
	if f == nil {
		return
	}
	f.gateway.stop()
	for _, r := range f.replicas {
		r.stop()
	}
}

func (f *fleet) cpuSeconds() (replicas, gateway float64) {
	for _, r := range f.replicas {
		replicas += r.cpuSeconds()
	}
	return replicas, f.gateway.cpuSeconds()
}

func (f *fleet) peakRSSMiB() float64 {
	var sum float64
	for _, p := range f.procs() {
		sum += p.peakRSSMiB()
	}
	return sum
}

// sampleRSS records the fleet's summed resident set every rssPoll
// until ctx ends, then sends the samples.
func (f *fleet) sampleRSS(ctx context.Context) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var samples []float64
		tick := time.NewTicker(rssPoll)
		defer tick.Stop()
		for {
			var sum float64
			for _, p := range f.procs() {
				sum += p.rssMiB()
			}
			samples = append(samples, sum)
			select {
			case <-ctx.Done():
				out <- samples
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

const rssPoll = 100 * time.Millisecond

// probeQuery is the readiness probe: a /route that must succeed
// through the path the workload uses.
type probeQuery struct {
	src, dst int
	budget   float64
}

// launchFleet starts n cmd/serve replicas on the fixture, with
// cmd/serve defaults apart from addresses, artifact paths and replica
// IDs, and a cmd/gateway in front of them. It returns once
// the fleet is ready, with the time that took: every replica's own
// /healthz reports model_epoch >= 1, and then a probe /route succeeds
// through the front. The gateway starts after the replicas answer
// their health checks, as an orchestrator with readiness checks would
// start it.
func launchFleet(e *env, fx fixture, n int, probe probeQuery, tag string) (*fleet, float64, error) {
	f := &fleet{}
	t0 := time.Now()
	var ids []string
	for i := 0; i < n; i++ {
		addr, err := freePort()
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		id := fmt.Sprintf("r%d", i+1)
		args := []string{"-net", fx.net(), "-traj", fx.traj(), "-model", fx.model(), "-addr", addr, "-replica-id", id}
		p, err := startProc(id, e.binPath("serve"), args, filepath.Join(e.run, fmt.Sprintf("%s-%s.log", tag, id)))
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		p.url = "http://" + addr
		f.replicas = append(f.replicas, p)
		ids = append(ids, id+"="+p.url)
	}
	deadline := t0.Add(60 * time.Second)
	for _, r := range f.replicas {
		if err := waitReplica(r, deadline); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	addr, err := freePort()
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	p, err := startProc("gateway", e.binPath("gateway"),
		[]string{"-addr", addr, "-replicas", strings.Join(ids, ",")},
		filepath.Join(e.run, tag+"-gateway.log"))
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	p.url = "http://" + addr
	f.gateway = p
	f.front = p.url
	url := fmt.Sprintf("%s/route?source=%d&dest=%d&budget=%g", f.front, probe.src, probe.dst, probe.budget)
	for {
		if resp, err := controlClient.Get(url); err == nil {
			var body struct {
				Found      bool   `json:"found"`
				ModelEpoch uint64 `json:"model_epoch"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK && body.Found && body.ModelEpoch >= 1 {
				return f, time.Since(t0).Seconds(), nil
			}
		}
		if err := f.checkAlive(); err != nil || time.Now().After(deadline) {
			f.stop()
			if err == nil {
				err = errors.New("probe /route did not succeed within 60s")
			}
			return nil, 0, err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// gomaxprocs reports the process's GOMAXPROCS: the value a replica
// reports on /stats, else the environment's setting, else the Go
// runtime default (the CPUs the process may run on).
func (p *proc) gomaxprocs() string {
	var st struct {
		Runtime struct {
			GOMAXPROCS int `json:"gomaxprocs"`
		} `json:"runtime"`
	}
	if err := getJSON(p.url+"/stats", &st); err == nil && st.Runtime.GOMAXPROCS > 0 {
		return strconv.Itoa(st.Runtime.GOMAXPROCS)
	}
	if raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/environ", p.cmd.Process.Pid)); err == nil {
		for _, kv := range strings.Split(string(raw), "\x00") {
			if v, ok := strings.CutPrefix(kv, "GOMAXPROCS="); ok {
				return v
			}
		}
	}
	return fmt.Sprintf("%d (runtime default)", runtime.NumCPU())
}

func (f *fleet) checkAlive() error {
	for _, p := range f.procs() {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up: %v", p.name, p.err)
		}
	}
	return nil
}

// waitReplica polls the replica's own /healthz until it reports a
// loaded model.
func waitReplica(p *proc, deadline time.Time) error {
	for {
		var h struct {
			Status     string `json:"status"`
			ModelEpoch uint64 `json:"model_epoch"`
		}
		if err := getJSON(p.url+"/healthz", &h); err == nil && h.Status == "ok" && h.ModelEpoch >= 1 {
			return nil
		}
		if p.exited() {
			return fmt.Errorf("%s exited during start-up: %v", p.name, p.err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy within 60s", p.name)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// controlClient carries the benchmark's own control traffic (health
// polls, stats and metrics scrapes, post-window checks), kept apart
// from the load generator's bounded connection pool.
var controlClient = &http.Client{Timeout: 10 * time.Second}

func getJSON(url string, v any) error {
	resp, err := controlClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func getBytes(url string) ([]byte, error) {
	resp, err := controlClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, err
}

// scrape is one /metrics exposition per process, keyed by process name.
type scrape map[string][]obs.Sample

func (f *fleet) scrape() (scrape, error) {
	out := scrape{}
	for _, p := range f.procs() {
		raw, err := getBytes(p.url + "/metrics")
		if err != nil {
			return nil, err
		}
		s, err := obs.ParseText(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("%s /metrics: %w", p.name, err)
		}
		out[p.name] = s
	}
	return out, nil
}

// sum adds every sample of the named series whose labels include all
// of match, over the named processes (all replicas when procs is nil).
func (s scrape) sum(procs []string, name string, match map[string]string) float64 {
	var total float64
	for pname, samples := range s {
		if procs == nil && !strings.HasPrefix(pname, "r") || procs != nil && !slices.Contains(procs, pname) {
			continue
		}
	next:
		for _, smp := range samples {
			if smp.Name != name {
				continue
			}
			for k, v := range match {
				if smp.Label(k) != v {
					continue next
				}
			}
			total += smp.Value
		}
	}
	return total
}

// delta is after − before for one series.
func delta(before, after scrape, procs []string, name string, match map[string]string) float64 {
	return after.sum(procs, name, match) - before.sum(procs, name, match)
}
