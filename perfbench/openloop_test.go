package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func get(int) request { return request{kind: "site", method: http.MethodGet, path: "/"} }

// A server that freezes for 300ms of a 2s phase must show the freeze in
// the p99 (serve.query_p99_ms) and, since the freeze spans 15% of the
// phase, in the p90 the benchmark reports as latency_p90_ms: requests
// are charged from their intended send time, so the ones queued behind
// the stall count the wait. Timing each request from its actual send
// (the client's round trip) hides it, because only the requests in
// flight see the stall.
func TestOpenLoopStallLandsInP99(t *testing.T) {
	const stallFrom, stallTo = 300 * time.Millisecond, 600 * time.Millisecond
	var start atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if el := time.Duration(time.Now().UnixNano() - start.Load()); el >= stallFrom && el < stallTo {
			time.Sleep(stallTo - el)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	ol := newOpenLoop(srv.URL, 2)
	defer ol.close()

	start.Store(time.Now().UnixNano())
	ph := ol.run(200, 2*time.Second, time.Second, get)
	if ph.failures() != 0 || ph.unsent != 0 || len(ph.samples) != 400 {
		t.Fatalf("failures %d, unsent %d, samples %d; want 0, 0, 400", ph.failures(), ph.unsent, len(ph.samples))
	}
	p50, p90, p99 := median(ph.latencies()), quantile(ph.latencies(), 0.9), quantile(ph.latencies(), 0.99)
	var rtt []float64
	for _, s := range ph.samples {
		rtt = append(rtt, ms(s.rtt))
	}
	naive := quantile(rtt, 0.99)
	t.Logf("p50 %.2fms p90 %.2fms p99 %.2fms, round-trip p99 %.2fms, late p99 %.2fms", p50, p90, p99, naive, ph.lateP99())
	if p99 < 200 {
		t.Errorf("p99 %.2fms does not show the 300ms stall", p99)
	}
	// The queued requests' waits fall evenly from 300ms to 0, so the
	// 90th percentile sits near 100ms.
	if p90 < 50 {
		t.Errorf("p90 %.2fms does not show the 300ms stall", p90)
	}
	if p50 > 20 {
		t.Errorf("p50 %.2fms: the stall should touch only the tail", p50)
	}
	if naive > p99/2 {
		t.Errorf("round-trip p99 %.2fms should hide the stall that the schedule-charged p99 %.2fms shows", naive, p99)
	}
	if ph.lateP99() < 100 {
		t.Errorf("generator lateness p99 %.2fms: sends queued behind the stall should run late", ph.lateP99())
	}
}

// 429 and 5xx answers are failed requests, in the open and the closed
// loop.
func TestOpenLoopCountsRejectionsAsFailures(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 10 {
		case 0:
			w.WriteHeader(http.StatusTooManyRequests)
		case 5:
			w.WriteHeader(http.StatusInternalServerError)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	ol := newOpenLoop(srv.URL, 2)
	defer ol.close()
	ph := ol.run(100, time.Second, time.Second, get)
	if got := ph.failures(); got != 20 {
		t.Errorf("failures = %d, want 20 of 100", got)
	}
	if len(ol.problems) == 0 {
		t.Error("failed requests were not reported as problems")
	}
	// The closed loop sends exactly the requests asked for and counts
	// failures the same way.
	n.Store(0)
	if ph, _ := ol.closed(100, get); len(ph.samples) != 100 || ph.failures() != 20 {
		t.Errorf("closed loop: %d samples, %d failures; want 100, 20", len(ph.samples), ph.failures())
	}
}

// A span's self time excludes the union of its children, so children
// that ran in parallel are not subtracted twice.
func TestSelfTimeMergesParallelChildren(t *testing.T) {
	tr := newTracer()
	tr.add(spanRec{ID: 1, Name: "e2e.root", Start: 0, End: 100})
	tr.add(spanRec{ID: 2, Parent: 1, Name: "child", Start: 10, End: 50})
	tr.add(spanRec{ID: 3, Parent: 1, Name: "child", Start: 20, End: 60})
	tr.add(spanRec{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120})
	stats, residual := tr.analyze("e2e.root")
	self := map[string]time.Duration{}
	for _, s := range stats {
		self[s.name] = s.self
	}
	// Children cover [10,60) and [90,100) of the root: 60 of 100.
	if self["e2e.root"] != 40 || residual != 0.4 {
		t.Errorf("root self %d, residual %.2f; want 40, 0.40", self["e2e.root"], residual)
	}
	if self["child"] != 40+40+30 {
		t.Errorf("child self %d, want 110", self["child"])
	}
}

// A child that carries busy time (a crawler leg) covers only that much
// of its parent, so the leg's uncovered time reaches the residual.
func TestBusySpanCoversOnlyItsBusyTime(t *testing.T) {
	tr := newTracer()
	tr.add(spanRec{ID: 1, Name: "e2e.root", Start: 0, End: 100})
	tr.add(spanRec{ID: 2, Parent: 1, Name: "leg", Start: 0, End: 60, Busy: 45})
	tr.add(spanRec{ID: 3, Parent: 1, Name: "save", Start: 60, End: 90})
	tr.addBusy("browser.visit", 10, 80)
	stats, residual := tr.analyze("e2e.root")
	self := map[string]time.Duration{}
	for _, s := range stats {
		self[s.name] = s.self
	}
	// Covered: 45 of the leg plus the save's 30; 25 of 100 is left.
	if self["e2e.root"] != 25 || residual != 0.25 {
		t.Errorf("root self %d, residual %.2f; want 25, 0.25", self["e2e.root"], residual)
	}
	if self["leg"] != 15 {
		t.Errorf("leg self %d, want 15", self["leg"])
	}
	if last := stats[len(stats)-1]; last.name != "browser.visit" || !last.busy || last.self != 80 {
		t.Errorf("busy layer row %+v, want browser.visit with self 80", last)
	}
}
