package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/serve/queryengine"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

// TestIngestTraceAgreesWithMetrics is the acceptance check of the
// telemetry subsystem: aggregating per-stage runs and busy time from
// the trace file alone must reproduce exactly what /metrics reports for
// the same ingests — integer nanoseconds against pipeline_stage_ns_sum.
func TestIngestTraceAgreesWithMetrics(t *testing.T) {
	var traceBuf bytes.Buffer
	tr := telemetry.NewTracer(&traceBuf, telemetry.TracerOptions{})
	srv := New(queryengine.New(serveStore(t)), Options{Tracer: tr})
	ts := newHTTPTestServer(t, srv)

	body, err := os.ReadFile("testdata/threatmetrix.netlog.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for i, params := range []string{
		"domain=first.example&os=Windows&crawl=live",
		"domain=second.example&os=Linux&crawl=live&retain=1",
		"domain=third.example&os=Windows&crawl=live&committed_at=1s",
	} {
		resp, err := http.Post(ts+"/v1/ingest?"+params, "application/jsonl", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: status %d", i, resp.StatusCode)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d records", tr.Dropped())
	}

	visits, err := telemetry.ReadTraces(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(visits) != 3 {
		t.Fatalf("trace records = %d, want 3", len(visits))
	}
	fromTrace := telemetry.Summarize(visits).Stages

	m := scrapeMetrics(t, ts)
	series, err := m.Histograms(pipeline.MetricStageNS)
	if err != nil {
		t.Fatal(err)
	}
	served := map[string]telemetry.HistogramSnapshot{}
	for _, s := range series {
		// Pre-resolved handles mint every pipeline stage's series; only
		// stages that ran appear in the trace.
		if s.Hist.Count > 0 {
			served[s.Labels["stage"]] = s.Hist
		}
	}
	if len(served) == 0 {
		t.Fatal("/metrics reports no pipeline stages after ingest")
	}
	if len(fromTrace) != len(served) {
		t.Fatalf("stage sets differ: trace %d stages, /metrics %v", len(fromTrace), served)
	}
	for stage, st := range fromTrace {
		h, ok := served[stage]
		if !ok {
			t.Fatalf("stage %q in trace but not in /metrics (%v)", stage, served)
		}
		if h.Sum != uint64(st.BusyNS) || h.Count != st.Runs {
			t.Errorf("stage %q: trace %d runs / %d ns busy, /metrics %d / %d", stage, st.Runs, st.BusyNS, h.Count, h.Sum)
		}
	}
	// The retained capture's netlog stage made it into both views.
	if _, ok := fromTrace["netlog"]; !ok {
		t.Fatal("retained upload must trace a netlog span")
	}
	// Item counts agree as well: the detect stage carried 14 findings
	// per upload.
	if n := promValue(t, m, pipeline.MetricStageItems, "stage", "detect"); n != 42 {
		t.Fatalf("detect items = %d, want 42", n)
	}
}

// TestQueryLatencyHistograms pins the query plane's server-observed
// latency surface: per-endpoint serve_query_ns series labeled by the
// route pattern (never the raw /v1/site/<domain> path) and the cache
// outcome, merged per endpoint from the Prometheus exposition.
func TestQueryLatencyHistograms(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := New(queryengine.New(serveStore(t)), Options{Registry: reg})
	ts := newHTTPTestServer(t, srv)

	var v any
	getJSON(t, ts+"/v1/summary", &v) // miss
	getJSON(t, ts+"/v1/summary", &v) // hit
	getJSON(t, ts+"/v1/site/scanner.example", &v)

	merged, counts := queryStats(t, scrapeMetrics(t, ts))
	sum, ok := merged["/v1/summary"]
	if !ok {
		t.Fatalf("serve_query_ns missing /v1/summary: %v", counts)
	}
	if c := counts["/v1/summary"]; sum.Count != 2 || c["miss"] != 1 || c["hit"] != 1 {
		t.Fatalf("summary query metrics = %d responses, %v", sum.Count, c)
	}
	if p50, p999 := sum.Quantile(0.5), sum.Quantile(0.999); p50 == 0 || p999 < p50 {
		t.Fatalf("summary quantiles implausible: p50 %d, p999 %d", p50, p999)
	}
	site, ok := merged["/v1/site/{domain}"]
	if !ok {
		t.Fatalf("site latency must be keyed by route pattern, got %v", counts)
	}
	if site.Count != 1 || counts["/v1/site/{domain}"]["miss"] != 1 {
		t.Fatalf("site query metrics = %d responses, %v", site.Count, counts["/v1/site/{domain}"])
	}
	for key := range counts {
		if strings.Contains(key, "scanner.example") {
			t.Fatalf("raw path leaked into endpoint label: %v", counts)
		}
	}

	// Ingesting a disjoint domain bumps the generation without touching
	// the site entry's scope: the next site lookup revalidates.
	body, err := os.ReadFile("testdata/threatmetrix.netlog.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts+"/v1/ingest?domain=other.example&os=Windows&crawl=live",
		"application/jsonl", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	getJSON(t, ts+"/v1/site/scanner.example", &v)
	_, counts = queryStats(t, scrapeMetrics(t, ts))
	if got := counts["/v1/site/{domain}"]["revalidated"]; got != 1 {
		t.Fatalf("site revalidated count = %d, want 1 (%v)", got, counts["/v1/site/{domain}"])
	}

	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE serve_query_ns histogram",
		`serve_query_ns_bucket{cache="hit",endpoint="/v1/summary",le="`,
		`serve_query_ns_count{cache="revalidated",endpoint="/v1/site/{domain}"}`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}
}

// queryStats decodes an exposition's serve_query_ns family into each
// endpoint's latency merged across cache outcomes, plus its response
// count per outcome.
func queryStats(t testing.TB, doc *telemetry.PromDoc) (map[string]telemetry.HistogramSnapshot, map[string]map[string]uint64) {
	t.Helper()
	series, err := doc.Histograms(MetricQueryNS)
	if err != nil {
		t.Fatal(err)
	}
	merged := map[string]telemetry.HistogramSnapshot{}
	counts := map[string]map[string]uint64{}
	for _, s := range series {
		endpoint := s.Labels["endpoint"]
		merged[endpoint] = merged[endpoint].Merge(s.Hist)
		if counts[endpoint] == nil {
			counts[endpoint] = map[string]uint64{}
		}
		counts[endpoint][s.Labels["cache"]] += s.Hist.Count
	}
	return merged, counts
}

// TestMetricsUnderLoad hammers the metrics views — HTTP /metrics under
// the strict parser and whole-registry JSON snapshots — while ingest
// uploads and query traffic run. Under -race this is the registry's
// serve-side data-race check; the strict parse checks that every
// histogram rendered mid-observation is internally consistent.
func TestMetricsUnderLoad(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := New(queryengine.New(serveStore(t)), Options{
		Registry: reg, QueryConcurrency: 32, IngestConcurrency: 4,
	})
	ts := newHTTPTestServer(t, srv)
	body, err := os.ReadFile("testdata/threatmetrix.netlog.jsonl")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				resp, err := http.Post(
					fmt.Sprintf("%s/v1/ingest?domain=load%d-%d.example&os=Windows", ts, n, j),
					"application/jsonl", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			paths := []string{"/v1/locals?dest=localhost", "/v1/summary", "/v1/site/scanner.example"}
			for j := 0; j < 12; j++ {
				resp, err := http.Get(ts + paths[(n+j)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 20; j++ {
			resp, err := http.Get(ts + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			_, err = telemetry.ParsePrometheus(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Errorf("/metrics under load failed strict parse: %v", err)
				return
			}
			var buf strings.Builder
			if err := reg.WriteJSON(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	m := scrapeMetrics(t, ts)
	if up, found := promValue(t, m, MetricIngestNS+"_count"), promValue(t, m, MetricIngestDetections); up != 16 || found != 16*14 {
		t.Fatalf("ingest totals after load: %d uploads, %d detections", up, found)
	}
	if reg.CounterValue(MetricRequests, "endpoint", "/v1/ingest") != 16 {
		t.Fatal("shared registry must carry the request counters")
	}
	// Both planes drained: in-flight gauges read zero.
	s := reg.Snapshot()
	for k, v := range s.Gauges {
		if v != 0 {
			t.Fatalf("gauge %s = %d after drain, want 0", k, v)
		}
	}
}

// newHTTPTestServer mounts an existing Server on a test listener and
// returns its base URL.
func newHTTPTestServer(t testing.TB, srv *Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}
