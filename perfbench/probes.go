package main

import (
	"bytes"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/netlog"
	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/report"
	"github.com/knockandtalk/knockandtalk/internal/serve/queryengine"
	"github.com/knockandtalk/knockandtalk/internal/websim"
)

// Probe sizes: a short mixed traffic phase, and repetitions of the
// direct engine calls.
const (
	probeRate     = 200
	probeDuration = time.Second
	probeReps     = 5
)

// probeLayers measures, in a traced run, the layers the workload's own
// traffic does not cover, so every workload reports every per-layer
// metric. Metrics the workload already measured are kept; the probes
// only fill gaps. The probes are fixed and small: a metric that comes
// from a probe tracks the layer's unit cost, not the workload's load.
//
// Always measured here, since no workload isolates them: the cost of a
// query-engine miss per endpoint, the first site-index access after a
// commit, and the ingest parse and detect stages. The serve probes run
// on the serve workloads' store (scale serveScale); a workload that
// has not crawled one passes nil and the probe crawls it.
func probeLayers(r *run, legs []leg, worlds []*websim.World, saved map[groundtruth.CrawlID][]byte) error {
	if saved == nil {
		legs = campaignLegs()
		var err error
		if worlds, err = buildWorlds(nil, 0, legs, serveScale, r.seed); err != nil {
			return err
		}
		out, err := runCampaignOnce(r, legs, worlds, r.seed, false)
		if err != nil {
			return err
		}
		saved = out.stores
	}
	m, err := mount(saved)
	if err != nil {
		return err
	}
	defer m.close()
	ptr := newTracer()
	if err := m.listen(ptr); err != nil {
		return err
	}
	payloads, err := makePayloads(legs, worlds, r.seed)
	if err != nil {
		return err
	}
	tf := newTraffic(r.seed, corpusDomains(m.st), payloads, true)
	ol := newOpenLoop(m.addr, r.nproc)
	defer ol.close()
	ol.check = tf.checkResponse
	ol.tr = ptr
	h, mi, v := m.cacheCounts()
	ph := r.count(ol.run(probeRate, probeDuration, time.Second, tf.gen))
	r.absorb(ol)
	recordCacheLayers(r.fillLayer, m, h, mi, v)
	recordHandlerLayers(r.fillLayer, ptr)
	recordLatencyLayers(r.fillLayer, ph)
	probeEngine(r, m, tf)
	probeIngest(r, m, payloads)

	if _, ok := r.layers["fleet.leases"]; !ok {
		res, err := runFleet(r)
		if err != nil {
			return err
		}
		recordFleetLayers(r.fillLayer, res)
	}
	return nil
}

// timeMedianMS runs fn reps times and returns the median wall time.
func timeMedianMS(reps int, fn func()) float64 {
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs)
}

// probeEngine times what a cache miss costs per endpoint, by calling
// the query engine and the summary renderer directly.
func probeEngine(r *run, m *mounted, tf *traffic) {
	eng := queryengine.New(m.st)
	r.fillLayer("queryengine.render_ms.pages", timeMedianMS(probeReps, func() {
		eng.Pages(queryengine.PagesFilter{Limit: 100})
	}), "ms")
	r.fillLayer("queryengine.render_ms.locals", timeMedianMS(probeReps, func() {
		eng.Locals(queryengine.LocalsFilter{Limit: 100})
	}), "ms")
	r.fillLayer("queryengine.render_ms.summary", timeMedianMS(probeReps, func() {
		report.SummaryJSON(m.st)
	}), "ms")
	// Site reports of the most popular domains.
	i := 0
	r.fillLayer("queryengine.render_ms.site", timeMedianMS(8*probeReps, func() {
		eng.Site(tf.domains[i%len(tf.domains)])
		i++
	}), "ms")
}

// probeIngest times the ingest stages on the payloads directly: JSONL
// parse, detection, and the first site-index access after a commit.
func probeIngest(r *run, m *mounted, payloads []payload) {
	var parse time.Duration
	var detect, delta []float64
	events := 0
	for _, p := range payloads {
		t0 := time.Now()
		log, err := netlog.ReadJSONL(bytes.NewReader(p.body))
		parse += time.Since(t0)
		if err != nil {
			r.check(false, "probe: parsing payload: %v", err)
			return
		}
		events += log.Len()
		t0 = time.Now()
		out := pipeline.Process(log, p.visit, pipeline.Options{Classify: true})
		detect = append(detect, us(time.Since(t0)))
		// Commit the visit, then time the site index absorbing it.
		out.Commit(m.st)
		t0 = time.Now()
		pipeline.IndexFor(m.st).Site(p.visit.Domain)
		delta = append(delta, us(time.Since(t0)))
	}
	r.fillLayer("pipeline.index_delta_us", median(delta), "us")
	r.fillLayer("ingest.parse_us_per_event", us(parse)/float64(events), "us")
	r.fillLayer("ingest.detect_us", mean(detect), "us")
	r.fillLayer("ingest.events", float64(events)/float64(len(payloads)), "count")
}
