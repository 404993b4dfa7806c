package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/serve"
	"github.com/knockandtalk/knockandtalk/internal/serve/queryengine"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

func page(domain string) *store.Batch {
	var b store.Batch
	b.AddPage(store.PageRecord{
		Crawl: "top100k-2020", OS: "Windows", Domain: domain,
		URL: "https://" + domain + "/", CommittedAt: time.Second,
	})
	return &b
}

// TestScrapeServerStats drives a live server through a known sequence
// of cache hits, misses and revalidations, then checks the scrape of
// its /metrics exposition: per-endpoint response and cache-outcome
// counts, and quantiles equal to those of the server's own registry
// histograms merged across outcomes.
func TestScrapeServerStats(t *testing.T) {
	st := store.New()
	st.AddBatch(page("a.example"))
	st.AddBatch(page("b.example"))
	srv := serve.New(queryengine.New(st), serve.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if stats, err := scrapeServerStats(ts.URL, time.Second); err != nil || len(stats) != 0 {
		t.Fatalf("idle server scrape = %v, %v; want no endpoints", stats, err)
	}

	get := func(path string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	get("/v1/summary")             // miss
	get("/v1/summary")             // hit
	get("/v1/site/a.example")      // miss
	get("/v1/site/a.example")      // hit
	get("/v1/site/b.example")      // miss
	get("/v1/locals?limit=5")      // miss
	st.AddBatch(page("c.example")) // a commit outside a.example's scope
	get("/v1/site/a.example")      // revalidated
	get("/v1/summary")             // miss: the summary depends on every commit

	stats, err := scrapeServerStats(ts.URL, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]uint64{
		"/v1/summary":       {"hit": 1, "miss": 2},
		"/v1/site/{domain}": {"hit": 1, "miss": 2, "revalidated": 1},
		"/v1/locals":        {"miss": 1},
	}
	if len(stats) != len(want) {
		t.Fatalf("scraped endpoints %v, want %v", stats, want)
	}
	reg := srv.Registry()
	for endpoint, cache := range want {
		got := stats[endpoint]
		var requests uint64
		var merged telemetry.HistogramSnapshot
		for outcome, n := range cache {
			requests += n
			merged = merged.Merge(reg.Histogram(serve.MetricQueryNS, "endpoint", endpoint, "cache", outcome).Snapshot())
		}
		if got.Requests != requests || !reflect.DeepEqual(got.Cache, cache) {
			t.Errorf("%s: scraped %d requests %v, want %d %v", endpoint, got.Requests, got.Cache, requests, cache)
		}
		if got.P50NS != merged.Quantile(0.50) || got.P99NS != merged.Quantile(0.99) {
			t.Errorf("%s: scraped p50/p99 %d/%d, registry %d/%d",
				endpoint, got.P50NS, got.P99NS, merged.Quantile(0.50), merged.Quantile(0.99))
		}
	}
}
