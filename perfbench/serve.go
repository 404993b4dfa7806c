package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/browser"
	"github.com/knockandtalk/knockandtalk/internal/goldencampaign"
	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/netlog"
	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/serve"
	"github.com/knockandtalk/knockandtalk/internal/serve/queryengine"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
	"github.com/knockandtalk/knockandtalk/internal/websim"
)

const (
	// serveScale is the population share of the store the serve
	// workloads mount: 0.5% of every population, 4,669 page records
	// over about 1,700 domains — some 5,000 cache keys, far more than
	// the server's 512-entry response cache holds.
	serveScale = 0.005
	// zipfS is the skew of the domain popularity distribution.
	zipfS = 1.0
	// payloadsPerClass is how many probing and how many quiet visits
	// the ingest payload set holds.
	payloadsPerClass = 16
	// roundRequests is how many requests one closed-loop round sends:
	// a fixed amount of work, so a round's ingests grow the store by
	// the same amount whatever the machine's speed.
	roundRequests = 4000
	// minRounds is the fewest measured rounds a run makes.
	minRounds = 3
)

// fixedRate is each serve workload's offered rate in requests per
// second (keyed by "mixed") in the traced run's open loop, well below
// its throughput on a 2-vCPU machine, so the phase does not measure the
// server's collapse.
var fixedRate = map[bool]float64{false: 1000, true: 150}

// payload is one ingest upload: a simulated visit's NetLog as JSONL,
// plus the detections the offline pipeline finds in it.
type payload struct {
	visit pipeline.Visit
	query string
	body  []byte
	want  []byte // offline detections, JSON-encoded
}

// traffic generates the serve workloads' requests. Request i is a pure
// function of (seed, i), so the schedule is the same whichever sender
// takes it.
type traffic struct {
	seed     uint64
	kinds    []string // weighted endpoint table
	domains  []string // in popularity order
	cdf      []float64
	payloads []payload
}

func newTraffic(seed uint64, domains []string, payloads []payload, mixed bool) *traffic {
	t := &traffic{seed: seed, payloads: payloads}
	for _, kw := range []struct {
		kind string
		w    int
	}{{"site", 4}, {"locals", 2}, {"pages", 2}, {"summary", 1}, {"ingest", 1}} {
		if kw.kind == "ingest" && !mixed {
			continue
		}
		for i := 0; i < kw.w; i++ {
			t.kinds = append(t.kinds, kw.kind)
		}
	}
	// Popularity: a seeded permutation of the corpus, Zipf-weighted.
	t.domains = append([]string(nil), domains...)
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(t.domains), func(i, j int) { t.domains[i], t.domains[j] = t.domains[j], t.domains[i] })
	var sum float64
	for k := 1; k <= len(t.domains); k++ {
		sum += 1 / math.Pow(float64(k), zipfS)
		t.cdf = append(t.cdf, sum)
	}
	for i := range t.cdf {
		t.cdf[i] /= sum
	}
	return t
}

// hash64 mixes (seed, i, salt) into 64 well-distributed bits with the
// splitmix64 finalizer.
func hash64(seed uint64, i int, salt byte) uint64 {
	x := seed ^ uint64(i)*0x9e3779b97f4a7c15 ^ uint64(salt)<<56
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func (t *traffic) gen(i int) request {
	kind := t.kinds[hash64(t.seed, i, 'k')%uint64(len(t.kinds))]
	u := float64(hash64(t.seed, i, 'd')>>11) / (1 << 53)
	dom := t.domains[min(sort.SearchFloat64s(t.cdf, u), len(t.domains)-1)]
	filtered := hash64(t.seed, i, 'f')&1 == 1
	switch kind {
	case "site":
		return request{kind: kind, method: http.MethodGet, path: "/v1/site/" + url.PathEscape(dom)}
	case "locals", "pages":
		p := "/v1/" + kind + "?limit=100"
		if filtered {
			p += "&domain=" + url.QueryEscape(dom)
		}
		return request{kind: kind, method: http.MethodGet, path: p}
	case "summary":
		return request{kind: kind, method: http.MethodGet, path: "/v1/summary"}
	default:
		ref := int(hash64(t.seed, i, 'p') % uint64(len(t.payloads)))
		p := t.payloads[ref]
		return request{kind: kind, method: http.MethodPost, path: "/v1/ingest?" + p.query, body: p.body, ref: ref}
	}
}

// checkResponse validates one 2xx answer: valid JSON, and for an ingest
// the same detections the offline pipeline finds in the payload.
func (t *traffic) checkResponse(req request, body []byte) error {
	if !json.Valid(body) {
		return errors.New("response is not valid JSON")
	}
	if req.kind != "ingest" {
		return nil
	}
	var resp serve.IngestResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	got, err := json.Marshal(resp.Detections)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, t.payloads[req.ref].want) {
		return fmt.Errorf("ingest detections %.300s differ from offline pipeline.Process %.300s", got, t.payloads[req.ref].want)
	}
	return nil
}

// makePayloads simulates a visit of every target of the seed's worlds,
// in a seeded order, and keeps the first payloadsPerClass visits that
// probe local addresses and as many quiet ones, each written with
// Log.WriteJSONL. Visiting every target, not stopping once both classes
// are full, keeps the set-up's work the same whatever the seed.
func makePayloads(legs []leg, worlds []*websim.World, seed uint64) ([]payload, error) {
	type cand struct{ leg, target int }
	var cands []cand
	for li, w := range worlds {
		for ti := range w.Targets {
			cands = append(cands, cand{li, ti})
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	browsers := make([]*browser.Browser, len(worlds))
	var probing, quiet []payload
	for _, c := range cands {
		lg, w := legs[c.leg], worlds[c.leg]
		if browsers[c.leg] == nil {
			browsers[c.leg] = browser.New(hostenv.DefaultProfile(lg.os), w.Net, browser.DefaultOptions())
		}
		tgt := w.Targets[c.target]
		res := browsers[c.leg].Visit(tgt.URL)
		visit := pipeline.Visit{
			Crawl: "live", OS: lg.os.String(), Domain: tgt.Domain, Rank: tgt.Rank,
			Category: string(tgt.Category), URL: tgt.URL, CommittedAt: res.CommittedAt,
		}
		probes := len(pipeline.Process(res.Log, visit, pipeline.Options{}).Findings) > 0
		if (probes && len(probing) == payloadsPerClass) || (!probes && len(quiet) == payloadsPerClass) {
			continue
		}
		var body bytes.Buffer
		if err := res.Log.WriteJSONL(&body); err != nil {
			return nil, err
		}
		p, n, err := newPayload(body.Bytes(), visit)
		if err != nil {
			return nil, err
		}
		switch {
		case n > 0 && len(probing) < payloadsPerClass:
			probing = append(probing, p)
		case n == 0 && len(quiet) < payloadsPerClass:
			quiet = append(quiet, p)
		}
	}
	if len(probing) == 0 || len(quiet) == 0 {
		return nil, fmt.Errorf("payloads: found %d probing and %d quiet visits", len(probing), len(quiet))
	}
	return append(probing, quiet...), nil
}

// newPayload builds the upload for a visit and its expected detections,
// found by running pipeline.Process offline on the same bytes.
func newPayload(body []byte, v pipeline.Visit) (payload, int, error) {
	log, err := netlog.ReadJSONL(bytes.NewReader(body))
	if err != nil {
		return payload{}, 0, err
	}
	out := pipeline.Process(log, v, pipeline.Options{Classify: true})
	locals := out.Locals
	if locals == nil {
		locals = []store.LocalRequest{}
	}
	want, err := json.Marshal(locals)
	if err != nil {
		return payload{}, 0, err
	}
	q := url.Values{
		"domain": {v.Domain}, "os": {v.OS}, "crawl": {v.Crawl}, "url": {v.URL},
		"rank": {strconv.Itoa(v.Rank)}, "committed_at": {v.CommittedAt.String()},
	}
	if v.Category != "" {
		q.Set("category", v.Category)
	}
	return payload{visit: v, query: q.Encode(), body: body, want: want}, len(out.Findings), nil
}

// mounted is a knockserved query plane over the benchmark's stores,
// served over loopback.
type mounted struct {
	st   *store.Store
	srv  *serve.Server
	reg  *telemetry.Registry
	http *http.Server
	addr string
	done chan error
}

// mount loads the saved stores into one store, as knockserved -in does,
// builds the server, and warms the site index with one summary query.
func mount(saved map[groundtruth.CrawlID][]byte) (*mounted, error) {
	m := &mounted{st: store.New(), reg: telemetry.NewRegistry()}
	for _, c := range goldencampaign.Crawls {
		if err := m.st.Load(bytes.NewReader(saved[c])); err != nil {
			return nil, fmt.Errorf("mounting %s: %w", c, err)
		}
	}
	m.srv = serve.New(queryengine.New(m.st), serve.Options{Registry: m.reg})
	rec := httptest.NewRecorder()
	m.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/summary", nil))
	if rec.Code != http.StatusOK {
		m.srv.Close()
		return nil, fmt.Errorf("warm-up summary: status %d", rec.Code)
	}
	return m, nil
}

// listen serves the mounted server over loopback. A traced run wraps
// the handler to time each request inside Handler().ServeHTTP.
func (m *mounted) listen(tr *tracer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = m.srv.Handler()
	if tr != nil {
		h = handlerSpans(tr, h)
	}
	m.addr = "http://" + ln.Addr().String()
	m.http = &http.Server{Handler: h}
	m.done = make(chan error, 1)
	go func() { m.done <- m.http.Serve(ln) }()
	return nil
}

func (m *mounted) close() {
	if m.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.http.Shutdown(ctx)
		<-m.done
	}
	m.srv.Close()
}

// cacheCounts reads the server's response-cache counters.
func (m *mounted) cacheCounts() (hits, misses, revalidated uint64) {
	// The revalidation counter is mirrored into the registry when
	// /metrics renders.
	m.srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return m.reg.CounterValue(serve.MetricCacheHits), m.reg.CounterValue(serve.MetricCacheMisses),
		m.reg.CounterValue(serve.MetricCacheRevalidated)
}

// endpointOf names the endpoint a request path belongs to.
func endpointOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/site/"):
		return "site"
	case path == "/v1/locals":
		return "locals"
	case path == "/v1/pages":
		return "pages"
	case path == "/v1/summary":
		return "summary"
	case path == "/v1/ingest":
		return "ingest"
	}
	return "other"
}

// handlerSpans times Handler().ServeHTTP for requests that carry the
// client's span, parenting the server span under it.
func handlerSpans(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, err := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, req)
			return
		}
		sp := tr.start("serve.handler."+endpointOf(req.URL.Path), parent)
		h.ServeHTTP(w, req)
		sp.end()
	})
}

// corpusDomains lists the store's distinct page domains, sorted.
func corpusDomains(st *store.Store) []string {
	seen := map[string]bool{}
	st.ForEachPage(func(p *store.PageRecord) { seen[p.Domain] = true })
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// serveInputs crawls the store the serve workloads mount, from the seed.
func serveInputs(r *run) ([]leg, []*websim.World, *campaignOutput, error) {
	legs := campaignLegs()
	t0 := time.Now()
	worlds, err := buildWorlds(r.tr, 0, legs, serveScale, r.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	build := time.Since(t0)
	out, err := runCampaignOnce(r, legs, worlds, r.seed, r.traced)
	if err != nil {
		return nil, nil, nil, err
	}
	if r.traced {
		r.setLayer("websim.build_ms", ms(build), "ms")
		recordCrawlLayers(r.setLayer, r.tr, []*campaignOutput{out})
	}
	return legs, worlds, out, nil
}

func runServe(r *run, mixed bool) error {
	legs, worlds, input, err := serveInputs(r)
	if err != nil {
		return err
	}
	// Set-up: mount the stores and, for the mixed workload, generate
	// the ingest payloads.
	var m *mounted
	var payloads []payload
	setup, err := medianSetup(func() (time.Duration, error) {
		if m != nil {
			m.close()
		}
		t0 := time.Now()
		var err error
		if m, err = mount(input.stores); err != nil {
			return 0, err
		}
		if mixed {
			if payloads, err = makePayloads(legs, worlds, r.seed); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	r.setE2E(mSetup, setup, "s")
	tf := newTraffic(r.seed, corpusDomains(m.st), payloads, mixed)
	if !r.traced {
		// The rounds mount servers of their own.
		m.close()
		return measureRounds(r, input.stores, tf)
	}
	defer m.close()
	if err := m.listen(r.tr); err != nil {
		return err
	}
	ol := newOpenLoop(m.addr, r.nproc)
	defer ol.close()
	ol.check = tf.checkResponse
	defer r.absorb(ol)

	// Warm the cache and connections before measuring.
	rate := fixedRate[mixed]
	r.count(ol.run(rate, r.seconds/10, time.Second, tf.gen))
	h, mi, v := m.cacheCounts()
	before := sampleRuntime()
	plain := r.count(ol.run(rate, r.seconds*2/5, time.Second, tf.gen))
	r.recordRuntime(sampleRuntime().sub(before), int64(len(plain.samples)))
	recordLatencyLayers(r.setLayer, plain)
	ol.tr = r.tr
	traced := r.count(ol.run(rate, r.seconds*2/5, time.Second, tf.gen))
	ol.tr = nil
	recordCacheLayers(r.setLayer, m, h, mi, v)
	r.setLayer("trace.overhead_share", median(traced.latencies())/median(plain.latencies())-1, "ratio")
	recordHandlerLayers(r.setLayer, r.tr)
	if err := probeLayers(r, legs, worlds, input.stores); err != nil {
		return err
	}
	return nil
}

// count adds a traffic phase's requests to the run's totals.
func (r *run) count(ph phase) phase {
	r.attempted += int64(len(ph.samples))
	r.failed += int64(ph.failures())
	return ph
}

// absorb fails the run for every problem the load generator reported: a
// non-2xx answer, a network error, or a response that failed its check.
func (r *run) absorb(ol *openLoop) {
	for _, p := range ol.problems {
		r.check(false, "%s", p)
	}
}

// measureRounds measures the untraced serve workloads in closed-loop
// rounds: nproc connections each send the next of roundRequests
// requests as soon as the connection's last answer is read. Every round
// sends the same requests on a freshly mounted server, from a collected
// heap, so one round's ingests and cache churn do not carry into the
// next. Rounds run unmeasured for a tenth of the time to warm the
// process up, then for the rest of it (at least minRounds). Each metric
// is the median over the measured rounds: throughput_per_s of their
// rates, latency_p50_ms of their median round trips, and peak_rss_mb of
// their peak resident sets.
func measureRounds(r *run, saved map[groundtruth.CrawlID][]byte, tf *traffic) error {
	var peaks []float64
	round := func() (phase, time.Duration, error) {
		// Collect the last round's garbage, hand its pages back to the
		// kernel and restart the peak count, so a round's peak is its
		// own.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return phase{}, 0, err
		}
		defer func() { peaks = append(peaks, peakRSSMB()) }()
		m, err := mount(saved)
		if err != nil {
			return phase{}, 0, err
		}
		defer m.close()
		if err := m.listen(nil); err != nil {
			return phase{}, 0, err
		}
		ol := newOpenLoop(m.addr, r.nproc)
		defer ol.close()
		ol.check = tf.checkResponse
		ph, took := ol.closed(roundRequests, tf.gen)
		r.count(ph)
		r.absorb(ol)
		return ph, took, nil
	}
	var last time.Duration
	for warm := time.Now(); last == 0 || time.Since(warm)+last <= r.seconds/10; {
		_, took, err := round()
		if err != nil {
			return err
		}
		last = took
	}
	peaks = peaks[:0]
	var rates, p50s []float64
	start := time.Now()
	for len(rates) < minRounds || time.Since(start)+last <= r.seconds*9/10 {
		ph, took, err := round()
		if err != nil {
			return err
		}
		last = took
		rates = append(rates, float64(len(ph.samples))/took.Seconds())
		p50s = append(p50s, median(ph.latencies()))
	}
	r.setE2E(mRSS, median(peaks), "MB")
	r.setE2E(mThroughput, median(rates), "1/s")
	r.setE2E(mP50, median(p50s), "ms")
	fmt.Printf("%s: %d rounds of %d requests, throughput %.0f/s, round-trip p50 %.3f ms\n",
		r.workload, len(rates), roundRequests, median(rates), median(p50s))
	return nil
}

// recordCacheLayers reports the response cache's hit and revalidation
// ratios over the lookups made since the counters read hits0, misses0
// and reval0.
func recordCacheLayers(set func(string, float64, string), m *mounted, hits0, misses0, reval0 uint64) {
	hits, misses, reval := m.cacheCounts()
	if looked := float64(hits - hits0 + misses - misses0); looked > 0 {
		set("queryengine.hit_ratio", float64(hits-hits0)/looked, "ratio")
		set("queryengine.revalidated_ratio", float64(reval-reval0)/looked, "ratio")
	}
}

// recordLatencyLayers splits an untraced fixed-rate phase's latency by
// plane and reports how late the generator ran.
func recordLatencyLayers(set func(string, float64, string), ph phase) {
	q := ph.latencies("site", "locals", "pages", "summary")
	set("serve.query_p50_ms", median(q), "ms")
	set("serve.query_p99_ms", quantile(q, 0.99), "ms")
	if in := ph.latencies("ingest"); len(in) > 0 {
		set("serve.ingest_p50_ms", median(in), "ms")
		set("serve.ingest_p99_ms", quantile(in, 0.99), "ms")
	}
	set("gen.late_p99_ms", ph.lateP99(), "ms")
}

// recordHandlerLayers reports the time inside Handler().ServeHTTP per
// endpoint and the transport share: client round trip minus handler
// time, per request.
func recordHandlerLayers(set func(string, float64, string), tr *tracer) {
	tr.mu.Lock()
	rtt := map[int64]int64{}
	handler := map[int64]int64{}
	byKind := map[string][]float64{}
	for _, s := range tr.spans {
		switch {
		case s.Name == "e2e.request":
			rtt[s.ID] = s.End - s.Start
		case strings.HasPrefix(s.Name, "serve.handler."):
			handler[s.Parent] = s.End - s.Start
			kind := strings.TrimPrefix(s.Name, "serve.handler.")
			byKind[kind] = append(byKind[kind], us(time.Duration(s.End-s.Start)))
		}
	}
	tr.mu.Unlock()
	var transport []float64
	for id, h := range handler {
		if t, ok := rtt[id]; ok {
			transport = append(transport, us(time.Duration(t-h)))
		}
	}
	for kind, xs := range byKind {
		set("serve.handler_us."+kind, mean(xs), "us")
	}
	if len(transport) > 0 {
		set("serve.transport_us", mean(transport), "us")
	}
}
