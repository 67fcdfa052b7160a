package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// op is one scheduled request of the open loop.
type op struct {
	due    time.Duration // offset from the start of the schedule
	method string
	url    string
	body   []byte
	lane   int // sender lane (see runFrom)
}

// outcome is what happened to one op. Latency is measured from the
// op's due time, so a stall delays every request due during it and
// the wait counts against each of them.
type outcome struct {
	sent    bool
	status  int
	err     error
	body    []byte
	replica string
	sendAt  time.Duration // send, from the start of the schedule
	lat     time.Duration // completion − due
	lag     time.Duration // send − max(due, pick-up): the generator's own lateness
	wait    time.Duration // pick-up − due, when every sender was busy: the backlog
	done    time.Duration // completion, from the start of the schedule
}

// spinLead is how long before a due time a sender stops waiting on a
// Go timer and sleeps in nanosleep(2) instead: an idle Go process
// waits for timers in epoll with millisecond granularity, which would
// make the generator up to a millisecond late, as much as a cache hit
// takes.
const spinLead = 2 * time.Millisecond

// gcBackstop is the heap size at which the generator collects garbage
// during a schedule anyway.
const gcBackstop = 2 << 30

func (o *outcome) ok() bool { return o.sent && o.err == nil && o.status == http.StatusOK }

// loadgen is the open-loop generator: a fixed set of senders, no more
// than the machine has CPUs, each holding at most one connection.
type loadgen struct {
	workers int
	client  *http.Client
	open    atomic.Int64 // connections currently open
	peak    atomic.Int64 // most connections open at once
}

func newLoadgen(workers int) *loadgen {
	g := &loadgen{workers: workers}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	g.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := dialer.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				n := g.open.Add(1)
				for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
				}
				return &countedConn{Conn: c, g: g}, nil
			},
		},
	}
	return g
}

type countedConn struct {
	net.Conn
	g    *loadgen
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.g.open.Add(-1) })
	return c.Conn.Close()
}

// close drops the generator's idle connections.
func (g *loadgen) close() { g.client.CloseIdleConnections() }

// runFrom sends ops on their schedule, due times counted from start,
// until every op is sent or stop ends; ops not yet sent when stop ends
// stay unsent, and requests in flight complete. ctx bounds the
// requests themselves. It returns one outcome per op.
//
// Each lane has its own senders, so requests of one lane never queue
// behind another lane's: with as few connections as CPUs, a cheap
// cache hit would otherwise wait behind a long search in a way
// independent users on their own connections never do. With fewer
// senders than lanes, every op shares one lane.
func (g *loadgen) runFrom(ctx, stop context.Context, ops []op, start time.Time) []outcome {
	// This process holds an engine of its own for the correctness gate;
	// a collection of that heap mid-schedule would make the senders
	// late. The garbage of one schedule is small, so collect before and
	// after it instead, with a memory limit as the backstop.
	runtime.GC()
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(gcBackstop))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	out := make([]outcome, len(ops))
	lanes := 1
	for _, o := range ops {
		lanes = max(lanes, o.lane+1)
	}
	if lanes > g.workers {
		lanes = 1
	}
	queues := make([][]int, lanes)
	for i, o := range ops {
		l := o.lane
		if lanes == 1 {
			l = 0
		}
		queues[l] = append(queues[l], i)
	}
	next := make([]atomic.Int64, lanes)
	var wg sync.WaitGroup
	for w := 0; w < lanes*(g.workers/lanes); w++ {
		lane := w % lanes
		queue := queues[lane]
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for {
				k := int(next[lane].Add(1)) - 1
				if k >= len(queue) || stop.Err() != nil {
					return
				}
				i := queue[k]
				o := &ops[i]
				pickup := time.Since(start)
				if d := o.due - pickup - spinLead; d > 0 {
					timer.Reset(d)
					select {
					case <-timer.C:
					case <-stop.Done():
						return
					}
				}
				if d := o.due - time.Since(start); d > 0 {
					ts := syscall.NsecToTimespec(int64(d))
					_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep
				}
				if stop.Err() != nil {
					return
				}
				sendAt := time.Since(start)
				res := &out[i]
				res.sent, res.sendAt = true, sendAt
				g.do(ctx, o, res)
				res.done = time.Since(start)
				res.lat = res.done - o.due
				res.lag = sendAt - max(o.due, pickup)
				res.wait = max(0, pickup-o.due)
			}
		}()
	}
	wg.Wait()
	return out
}

func (g *loadgen) do(ctx context.Context, o *op, res *outcome) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method, o.url, body)
	if err != nil {
		res.err = err
		return
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		res.err = err
		return
	}
	res.body, res.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	res.status = resp.StatusCode
	res.replica = resp.Header.Get("X-Replica")
}
