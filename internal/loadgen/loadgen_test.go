package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

// getEndpoint builds a GET endpoint against base with a fixed path.
func getEndpoint(name, base, path string, weight int) Endpoint {
	return Endpoint{
		Name:   name,
		Weight: weight,
		Request: func(i uint64) Request {
			return Request{URL: base + path}
		},
	}
}

func TestClosedLoopMixAndTotals(t *testing.T) {
	var hitsA, hitsB atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/a":
			hitsA.Add(1)
		case "/b":
			hitsB.Add(1)
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	var observed atomic.Uint64
	reg := telemetry.NewRegistry()
	r, err := New([]Endpoint{
		getEndpoint("a", ts.URL, "/a", 3),
		getEndpoint("b", ts.URL, "/b", 1),
	}, Options{
		Registry: reg,
		Observer: func(string, time.Duration, bool) { observed.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Closed(context.Background(), 4, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "closed" || res.Workers != 4 {
		t.Fatalf("result header = %+v", res)
	}
	if res.Requests == 0 || res.Requests != hitsA.Load()+hitsB.Load() {
		t.Fatalf("requests = %d, server saw %d+%d", res.Requests, hitsA.Load(), hitsB.Load())
	}
	if res.Errors != 0 || res.Rejected != 0 {
		t.Fatalf("unexpected failures: %+v", res)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %v", res.Throughput)
	}
	// The weighted ring keeps the 3:1 mix exact to within one ring lap.
	a, b := res.Endpoints["a"].Requests, res.Endpoints["b"].Requests
	if a != hitsA.Load() || b != hitsB.Load() {
		t.Fatalf("per-endpoint counts diverge from server: %d/%d vs %d/%d", a, b, hitsA.Load(), hitsB.Load())
	}
	if b == 0 || a < 2*b || a > 4*b+4 {
		t.Fatalf("mix off: a=%d b=%d, want ~3:1", a, b)
	}
	if res.Overall.Requests != res.Requests || res.Overall.P50NS == 0 || res.Overall.P999NS < res.Overall.P50NS {
		t.Fatalf("overall stats implausible: %+v", res.Overall)
	}
	// Closed-loop results carry no naive quantiles (they would equal the
	// corrected ones).
	if res.Overall.NaiveP99NS != 0 {
		t.Fatalf("closed-loop result has naive quantiles: %+v", res.Overall)
	}
	if observed.Load() != res.Requests {
		t.Fatalf("observer saw %d of %d requests", observed.Load(), res.Requests)
	}
	// The mirror registry carries the cumulative live view under a mode
	// label, as its exposition shows.
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	doc, err := telemetry.ParsePrometheus(strings.NewReader(prom.String()))
	if err != nil {
		t.Fatal(err)
	}
	fam, err := doc.Histograms(MetricLatencyNS)
	if err != nil {
		t.Fatal(err)
	}
	var mirrored uint64
	for _, s := range fam {
		if s.Labels["mode"] != "closed" {
			t.Fatalf("mirror series lost mode label: %+v", s.Labels)
		}
		mirrored += s.Hist.Count
	}
	if mirrored != res.Requests {
		t.Fatalf("mirror registry has %d observations, want %d", mirrored, res.Requests)
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	r, err := New([]Endpoint{getEndpoint("a", ts.URL, "/a", 1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Open(context.Background(), 500, 32, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// The virtual schedule is exact: rate * duration arrivals, every one
	// of them sent.
	if res.Requests != 200 {
		t.Fatalf("requests = %d, want exactly 200", res.Requests)
	}
	if res.Mode != "open" || res.OfferedRate != 500 {
		t.Fatalf("result header = %+v", res)
	}
	// A keeping-up server shows corrected ≈ naive.
	if res.Overall.NaiveP99NS == 0 {
		t.Fatal("open-loop result must carry naive quantiles")
	}
	if res.Overall.P99NS > uint64(100*time.Millisecond) {
		t.Fatalf("unstalled corrected p99 = %s, implausibly high", time.Duration(res.Overall.P99NS))
	}
}

// TestCoordinatedOmissionCorrection is the harness's reason to exist:
// against a server that freezes for stall, the corrected open-loop p99
// must surface approximately the stall duration, while the naive
// send-time measurement — which only charges the stall to the few
// requests actually in flight — stays misleadingly small.
func TestCoordinatedOmissionCorrection(t *testing.T) {
	const stall = 400 * time.Millisecond
	var gate sync.RWMutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gate.RLock()
		gate.RUnlock()
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	// Freeze the server 100ms into the run: every request arriving
	// during the stall window blocks until it lifts.
	timer := time.AfterFunc(100*time.Millisecond, func() {
		gate.Lock()
		time.Sleep(stall)
		gate.Unlock()
	})
	defer timer.Stop()

	r, err := New([]Endpoint{getEndpoint("a", ts.URL, "/a", 1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Open(context.Background(), 1000, 8, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 1000 || res.Errors != 0 {
		t.Fatalf("run totals: %+v", res)
	}
	corrected := time.Duration(res.Overall.P99NS)
	naive := time.Duration(res.Overall.NaiveP99NS)
	t.Logf("corrected p99 = %v, naive p99 = %v (stall %v)", corrected, naive, stall)
	// Corrected p99 ≈ stall: the ~400 arrivals scheduled during the
	// freeze each carry the wait the freeze imposed on them.
	if corrected < stall/2 {
		t.Errorf("corrected p99 = %v, want >= %v (stall %v not surfaced)", corrected, stall/2, stall)
	}
	if corrected > 3*stall {
		t.Errorf("corrected p99 = %v, implausibly above the stall %v", corrected, stall)
	}
	// Naive p99 hides it: only the 8 in-flight requests ever measured
	// the freeze from their send time — under 1% of the run.
	if naive > stall/4 {
		t.Errorf("naive p99 = %v, want < %v (coordinated omission should hide the stall)", naive, stall/4)
	}
	if corrected < 4*naive {
		t.Errorf("corrected (%v) and naive (%v) tails must diverge under a stall", corrected, naive)
	}
}

func TestErrorAndRejectionTallies(t *testing.T) {
	var n atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 3 {
		case 0:
			w.WriteHeader(http.StatusTooManyRequests)
		case 1:
			w.WriteHeader(http.StatusInternalServerError)
		default:
			w.Write([]byte(`{}`))
		}
	}))
	defer ts.Close()
	r, err := New([]Endpoint{getEndpoint("a", ts.URL, "/a", 1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Closed(context.Background(), 2, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 || res.Rejected == 0 {
		t.Fatalf("expected 5xx and 429 tallies: %+v", res)
	}
	st := res.Endpoints["a"]
	if st.Errors != res.Errors || st.Rejected != res.Rejected {
		t.Fatalf("per-endpoint tallies diverge: %+v vs %+v", st, res)
	}
	// Only 2xx responses feed the latency histogram.
	okResponses := res.Requests - res.Errors - res.Rejected
	if okResponses == 0 {
		t.Fatal("no successful responses in the mix")
	}
}

func TestSweepCurveAndSLOGate(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	r, err := New([]Endpoint{getEndpoint("a", ts.URL, "/a", 1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	points, results, err := r.Sweep(context.Background(), []float64{100, 200}, 32, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || len(results) != 2 {
		t.Fatalf("sweep produced %d points / %d results, want 2/2", len(points), len(results))
	}
	for i, p := range points {
		if p.OfferedRate != []float64{100, 200}[i] || p.Throughput <= 0 || p.P99NS == 0 {
			t.Fatalf("sweep point %d implausible: %+v", i, p)
		}
	}

	bench := &Bench{BaseURL: ts.URL, Version: "test", GoVersion: "go-test", Open: results[1], Sweep: points}
	if v := bench.Gate(time.Nanosecond); v.Pass {
		t.Fatal("1ns SLO must fail against a 2ms server")
	}
	if bench.SLO.WorstEP != "a" || bench.SLO.WorstNS == 0 {
		t.Fatalf("gate verdict lost the offender: %+v", bench.SLO)
	}
	if v := bench.Gate(10 * time.Second); !v.Pass {
		t.Fatalf("10s SLO must pass: %+v", v)
	}

	var text strings.Builder
	bench.WriteText(&text)
	for _, want := range []string{"open-loop", "rate=200.0/s", "endpoint", "overall", "sweep", "SLO: p99 <= 10.00s — PASS", "naive-p99"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}
	var jsonOut strings.Builder
	if err := bench.WriteJSON(&jsonOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"p99_ns"`, `"offered_rate_per_sec"`, `"mode": "open"`, `"slo"`, `"base_url"`} {
		if !strings.Contains(jsonOut.String(), want) {
			t.Errorf("JSON report missing %q", want)
		}
	}
}
