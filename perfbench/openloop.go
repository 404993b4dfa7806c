package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// request is one generated HTTP request.
type request struct {
	kind   string // endpoint name: site, locals, pages, summary, ingest
	method string
	path   string // path and query, appended to the base URL
	body   []byte
	ref    int // payload index of an ingest, for its output check
}

// sample is one request's outcome. Latency is charged from the request's
// intended send time on the schedule, so a stall also charges the wait
// it imposes on every request queued behind it; late is how far behind
// the schedule the request was actually sent.
type sample struct {
	kind    string
	latency time.Duration
	late    time.Duration
	rtt     time.Duration // send to response read, as the client saw it
	failed  bool
}

// spanHeader carries the client's request span to the handler wrapper
// in traced runs, so server-side spans parent under it.
const spanHeader = "X-Perfbench-Span"

// openLoop sends requests on a fixed arrival schedule over at most
// conns connections. It is the benchmark's own load generator: request
// i is due at start + i/rate whatever happened to earlier requests.
type openLoop struct {
	base   string
	client *http.Client
	conns  int
	tr     *tracer // nil in untraced runs
	// check validates a 2xx response body; a non-nil error fails the run.
	check func(req request, body []byte) error

	mu       sync.Mutex
	problems []string
}

func newOpenLoop(base string, conns int) *openLoop {
	tp := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, MaxIdleConns: conns}
	return &openLoop{base: base, conns: conns, client: &http.Client{Transport: tp, Timeout: 30 * time.Second}}
}

func (o *openLoop) close() { o.client.CloseIdleConnections() }

func (o *openLoop) problem(format string, args ...any) {
	o.mu.Lock()
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
}

// phase is the outcome of one run of the schedule.
type phase struct {
	samples []sample
	unsent  int // requests still unsent when the phase was cut
}

// run sends rate×dur requests from gen on the schedule. A sender that
// falls more than grace behind the end of the schedule stops, and the
// requests it did not send are counted in unsent: a backlog that grows
// without bound is cut off rather than waited out.
func (o *openLoop) run(rate float64, dur, grace time.Duration, gen func(i int) request) phase {
	n := int(rate * dur.Seconds())
	interval := float64(time.Second) / rate
	start := time.Now().Add(2 * time.Millisecond)
	cutoff := start.Add(dur + grace)
	var next atomic.Int64
	var unsent atomic.Int64
	results := make([][]sample, o.conns)
	var wg sync.WaitGroup
	for c := 0; c < o.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				if wait := time.Until(due); wait > 0 {
					sleepFor(wait)
				}
				sent := time.Now()
				if sent.After(cutoff) {
					unsent.Add(int64(n - i))
					next.Store(int64(n))
					return
				}
				s := o.do(gen(i))
				s.late = sent.Sub(due)
				s.latency = time.Since(due)
				results[c] = append(results[c], s)
			}
		}(c)
	}
	wg.Wait()
	ph := phase{unsent: int(unsent.Load())}
	for _, rs := range results {
		ph.samples = append(ph.samples, rs...)
	}
	return ph
}

// closed sends requests 0..n-1 from gen back to back on every
// connection, each as soon as the connection's previous answer is read,
// and returns the samples and the time they took. A sample's latency is
// its round trip.
func (o *openLoop) closed(n int, gen func(i int) request) (phase, time.Duration) {
	var next atomic.Int64
	results := make([][]sample, o.conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < o.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				s := o.do(gen(i))
				s.latency = s.rtt
				results[c] = append(results[c], s)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var ph phase
	for _, rs := range results {
		ph.samples = append(ph.samples, rs...)
	}
	return ph, elapsed
}

// sleepFor blocks the sender's thread in nanosleep(2). time.Sleep
// waits on the runtime's timers, which an idle process polls with
// millisecond timeouts: a sub-millisecond wait then oversleeps by up to
// a millisecond, and the latency charged from the schedule would carry
// the generator's own timer error.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// do sends one request and reads the whole response.
func (o *openLoop) do(req request) sample {
	s := sample{kind: req.kind}
	var body io.Reader
	if req.body != nil {
		body = bytes.NewReader(req.body)
	}
	hreq, err := http.NewRequestWithContext(context.Background(), req.method, o.base+req.path, body)
	if err != nil {
		s.failed = true
		o.problem("building %s %s: %v", req.method, req.path, err)
		return s
	}
	root := o.tr.start("e2e.request", 0)
	if o.tr != nil {
		hreq.Header.Set(spanHeader, strconv.FormatInt(root.id, 10))
	}
	t0 := time.Now()
	resp, err := o.client.Do(hreq)
	if err != nil {
		s.failed = true
		o.problem("%s %s: %v", req.method, req.path, err)
		return s
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.rtt = time.Since(t0)
	root.end()
	if err != nil {
		s.failed = true
		o.problem("%s %s: reading body: %v", req.method, req.path, err)
		return s
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		// 429, 5xx and every other non-2xx answer is a failed request.
		s.failed = true
		o.problem("%s %s: status %d: %.200s", req.method, req.path, resp.StatusCode, raw)
		return s
	}
	if o.check != nil {
		if err := o.check(req, raw); err != nil {
			s.failed = true
			o.problem("%s %s: %v", req.method, req.path, err)
		}
	}
	return s
}

// latencies returns the phase's latencies in milliseconds for the
// given kinds (all kinds when none are named). Failed requests are
// charged as infinitely slow, so they always miss a latency limit.
func (ph phase) latencies(kinds ...string) []float64 {
	want := map[string]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	var out []float64
	for _, s := range ph.samples {
		if len(want) > 0 && !want[s.kind] {
			continue
		}
		if s.failed {
			out = append(out, inf)
			continue
		}
		out = append(out, ms(s.latency))
	}
	return out
}

var inf = float64(1 << 62)

func (ph phase) failures() int {
	n := 0
	for _, s := range ph.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// lateP99 is the 99th percentile of how late the generator sent.
func (ph phase) lateP99() float64 {
	var xs []float64
	for _, s := range ph.samples {
		xs = append(xs, ms(s.late))
	}
	return quantile(xs, 0.99)
}
