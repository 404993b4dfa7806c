package telemetry

import (
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "path", "/v1/locals")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels resolves to the same handle.
	if r.Counter("requests_total", "path", "/v1/locals") != c {
		t.Fatal("re-resolving a counter minted a new handle")
	}
	// Label order must not mint distinct metrics.
	a := r.Counter("multi", "b", "2", "a", "1")
	b := r.Counter("multi", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order minted distinct counters")
	}
	g := r.Gauge("inflight")
	g.Add(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("gauge = %d, want 2", g.Value())
	}
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestCounterValueAndLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs", "path", "/a").Add(2)
	r.Counter("reqs", "path", "/b").Add(3)
	r.Counter("other").Inc()
	if v := r.CounterValue("reqs", "path", "/a"); v != 2 {
		t.Fatalf("CounterValue = %d, want 2", v)
	}
	if v := r.CounterValue("absent"); v != 0 {
		t.Fatalf("absent counter = %d, want 0", v)
	}
	// Label values taken from data may hold the key's own separators;
	// each still names its own series and decodes back unchanged.
	values := []string{"a,b", "a", `a\`, `a\,b`, "k=v", "}", ""}
	for i, v := range values {
		r.Counter("os_labels", "os", v, "plane", "x").Add(uint64(i + 1))
	}
	for i, v := range values {
		if got := r.CounterValue("os_labels", "os", v, "plane", "x"); got != uint64(i+1) {
			t.Errorf("CounterValue(os=%q) = %d, want %d", v, got, i+1)
		}
		name, labels := splitKey(metricKey("os_labels", []string{"os", v, "plane", "x"}))
		if name != "os_labels" || len(labels) != 2 || labels["os"] != v || labels["plane"] != "x" {
			t.Errorf("key for os=%q decodes to %s %v", v, name, labels)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)    // bucket le=0
	h.Observe(1)    // le=1
	h.Observe(2)    // le=3
	h.Observe(3)    // le=3
	h.Observe(1000) // le=1023
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 1006 {
		t.Fatalf("count=%d sum=%d, want 5/1006", s.Count, s.Sum)
	}
	want := map[uint64]uint64{0: 1, 1: 1, 3: 2, 1023: 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %v", s.Buckets, want)
	}
	for _, b := range s.Buckets {
		if want[b.Le] != b.N {
			t.Fatalf("bucket le=%d n=%d, want %d", b.Le, b.N, want[b.Le])
		}
	}
	// The 3rd of 5 samples lands halfway through the le=3 bucket
	// (span (1,3], 2 samples): 1 + 0.5*2 = 2 under interpolation.
	if q := s.Quantile(0.5); q != 2 {
		t.Fatalf("p50 = %d, want 2", q)
	}
	if q := s.Quantile(1); q != 1023 {
		t.Fatalf("p100 = %d, want 1023", q)
	}
	var empty Histogram
	if q := empty.Snapshot().Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", q)
	}
	var neg Histogram
	neg.ObserveDuration(-time.Second)
	if s := neg.Snapshot(); s.Sum != 0 || s.Count != 1 {
		t.Fatalf("negative duration must clamp to zero: %+v", s)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "os", "Windows").Add(2)
	r.Gauge("g").Set(-4)
	r.Histogram("h_ns").Observe(5)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"c_total{os=Windows}":2`, `"g":-4`, `"h_ns":{"count":1,"sum":5`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("snapshot JSON %s missing %s", raw, want)
		}
	}
	// Empty registry snapshots to the empty object: every section is
	// omitempty.
	raw, err = json.Marshal(NewRegistry().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "{}" {
		t.Fatalf("empty registry snapshot = %s, want {}", raw)
	}
}

// TestRegistryConcurrent hammers creation, writes, and snapshots from
// many goroutines; with -race this is the registry's data-race check.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const writers = 8
	const perWriter = 1000
	names := []string{"a_total", "b_total", "c_total"}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Counter(names[i%len(names)], "w", "shared").Inc()
				r.Gauge("inflight").Add(1)
				r.Histogram("lat_ns", "stage", names[i%len(names)]).Observe(uint64(i))
				r.Gauge("inflight").Add(-1)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				r.Snapshot()
				r.WritePrometheus(io.Discard)
			}
		}
	}()
	wg.Wait()
	close(done)
	var total uint64
	for _, n := range names {
		total += r.CounterValue(n, "w", "shared")
	}
	if want := uint64(writers * perWriter); total != want {
		t.Fatalf("counted %d increments, want %d", total, want)
	}
	if g := r.Gauge("inflight").Value(); g != 0 {
		t.Fatalf("inflight gauge = %d, want 0 after drain", g)
	}
}

// TestQuantileInterpolation pins the within-bucket linear
// interpolation: quantiles are read off the bucket's (le>>1, le] span
// proportionally to how far into the bucket the target sample falls,
// not snapped to the upper bound.
func TestQuantileInterpolation(t *testing.T) {
	var h Histogram
	// 4 samples, all in the le=7 bucket (span (3, 7]).
	for i := 0; i < 4; i++ {
		h.Observe(5)
	}
	s := h.Snapshot()
	// Targets 1..4 of 4 interpolate to 3 + {1,2,3,4}/4 * 4 = 4,5,6,7.
	for _, tc := range []struct {
		q    float64
		want uint64
	}{{0.25, 4}, {0.5, 5}, {0.75, 6}, {1, 7}, {0, 4}} {
		if got := s.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
}

// TestQuantileBucketBoundary pins exact-boundary behavior: a
// cumulative count landing on a bucket's last sample returns that
// bucket's inclusive upper bound exactly, and the first sample of the
// next bucket moves strictly into the next span.
func TestQuantileBucketBoundary(t *testing.T) {
	var h Histogram
	h.Observe(1) // le=1
	h.Observe(3) // le=3
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %d, want the le=1 bound exactly", got)
	}
	if got := s.Quantile(1); got != 3 {
		t.Errorf("p100 = %d, want the le=3 bound exactly", got)
	}
	// q beyond 1 clamps to the last sample rather than overshooting.
	if got := s.Quantile(1.5); got != 3 {
		t.Errorf("Quantile(1.5) = %d, want 3", got)
	}
}

// TestQuantileMonotone sweeps a mixed histogram and asserts the
// interpolated quantile never decreases as q grows.
func TestQuantileMonotone(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 0, 1, 2, 3, 5, 9, 17, 90, 1000, 70000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	var prev uint64
	for q := 0.0; q <= 1.0; q += 0.001 {
		cur := s.Quantile(q)
		if cur < prev {
			t.Fatalf("Quantile(%v) = %d < previous %d", q, cur, prev)
		}
		prev = cur
	}
}

// TestHistogramSnapshotMerge merges two snapshots with overlapping and
// disjoint buckets and checks the union quantiles come out of the
// combined distribution.
func TestHistogramSnapshotMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(1)
	a.Observe(2)
	b.Observe(2)
	b.Observe(1000)
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count != 4 || m.Sum != 1005 {
		t.Fatalf("merged count=%d sum=%d, want 4/1005", m.Count, m.Sum)
	}
	want := map[uint64]uint64{1: 1, 3: 2, 1023: 1}
	if len(m.Buckets) != len(want) {
		t.Fatalf("merged buckets = %+v, want %v", m.Buckets, want)
	}
	var prev uint64
	for _, bk := range m.Buckets {
		if bk.Le < prev {
			t.Fatalf("merged buckets out of order: %+v", m.Buckets)
		}
		prev = bk.Le
		if want[bk.Le] != bk.N {
			t.Fatalf("merged bucket le=%d n=%d, want %d", bk.Le, bk.N, want[bk.Le])
		}
	}
	if empty := (HistogramSnapshot{}).Merge(a.Snapshot()); empty.Count != 2 {
		t.Fatalf("merge into empty lost samples: %+v", empty)
	}
}

// TestRegisterBuildInfo checks the standard build-identity gauge: one
// series, constant 1, carrying version and goversion labels that also
// survive the Prometheus exposition.
func TestRegisterBuildInfo(t *testing.T) {
	r := NewRegistry()
	version := RegisterBuildInfo(r)
	if version == "" {
		t.Fatal("RegisterBuildInfo returned an empty version")
	}
	snap := r.Snapshot()
	found := false
	for k, v := range snap.Gauges {
		if !strings.HasPrefix(k, MetricBuildInfo+"{") {
			continue
		}
		found = true
		if v != 1 {
			t.Fatalf("%s = %d, want 1", k, v)
		}
		if !strings.Contains(k, "goversion=go") || !strings.Contains(k, "version="+version) {
			t.Fatalf("build info labels missing from %s", k)
		}
	}
	if !found {
		t.Fatal("knock_build_info gauge not registered")
	}
	var prom strings.Builder
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "# TYPE knock_build_info gauge") ||
		!strings.Contains(prom.String(), `knock_build_info{goversion="`) {
		t.Fatalf("Prometheus exposition lost build info:\n%s", prom.String())
	}
}
