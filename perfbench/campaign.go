package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/crawler"
	"github.com/knockandtalk/knockandtalk/internal/goldencampaign"
	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/report"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/websim"
)

// crawlScale is the population share the campaign and fleet workloads
// crawl: 3% of every population, about 28,000 visits over the 8 legs.
const crawlScale = 0.03

// A run repeats its set-up at least setupReps times and for at least
// setupBudget; setup_s is the median.
const (
	setupReps   = 5
	setupBudget = time.Second
)

// medianSetup repeats a set-up step, which times itself, and returns
// the median of its times in seconds.
func medianSetup(step func() (time.Duration, error)) (float64, error) {
	var xs []float64
	start := time.Now()
	for len(xs) < setupReps || time.Since(start) < setupBudget {
		d, err := step()
		if err != nil {
			return 0, err
		}
		xs = append(xs, d.Seconds())
	}
	return median(xs), nil
}

// leg is one (crawl, OS) pass of the campaign.
type leg struct {
	crawl groundtruth.CrawlID
	os    hostenv.OS
}

func (l leg) String() string { return string(l.crawl) + "/" + l.os.String() }

// campaignLegs lists the 8 legs in campaign order: every crawl in the
// golden order, each on every OS it covers.
func campaignLegs() []leg {
	var out []leg
	for _, c := range goldencampaign.Crawls {
		cover := groundtruth.OSesFor(c)
		for _, os := range hostenv.AllOS {
			if cover.Has(osBit(os)) {
				out = append(out, leg{c, os})
			}
		}
	}
	return out
}

func osBit(os hostenv.OS) groundtruth.OSSet {
	switch os {
	case hostenv.Windows:
		return groundtruth.OSWindows
	case hostenv.Linux:
		return groundtruth.OSLinux
	default:
		return groundtruth.OSMac
	}
}

// buildWorlds binds one world per leg.
func buildWorlds(tr *tracer, parent int64, legs []leg, scale float64, seed uint64) ([]*websim.World, error) {
	worlds := make([]*websim.World, len(legs))
	for i, lg := range legs {
		sp := tr.start("websim.build", parent)
		w, err := websim.Build(lg.crawl, lg.os, scale, seed)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", lg, err)
		}
		worlds[i] = w
	}
	return worlds, nil
}

// campaignOutput is one campaign's saved stores and rendered report.
type campaignOutput struct {
	stores map[groundtruth.CrawlID][]byte
	report []byte
	visits int
	// sum is the digest of a compacted output.
	sum string
	// layers holds a timed campaign's crawl figures; nil otherwise.
	layers *crawlLayers
}

// crawlLayers are one timed campaign's per-layer figures: the crawler's
// own per-stage busy time (crawler.Config.StageTimings), summed over
// legs and workers, and counts from its summaries and stores.
type crawlLayers struct {
	busy                      map[string]time.Duration
	findings, records, events int
	saveMB                    float64
}

// add takes in one leg's summary and returns the leg's stage busy time
// summed over its workers.
func (l *crawlLayers) add(sum *crawler.Summary) time.Duration {
	var busy time.Duration
	for stage, d := range sum.StageBusy {
		l.busy[stage] += d
		busy += d
	}
	l.findings += sum.LocalRequests
	return busy
}

// compact drops the output bytes and keeps their digest, so measured
// runs do not grow the heap and with it the collector's pacing.
func (o *campaignOutput) compact() {
	o.sum = o.digest()
	o.stores, o.report = nil, nil
}

// digest names a campaign's outputs by content, for equality checks.
func (o *campaignOutput) digest() string {
	if o.stores == nil {
		return o.sum
	}
	var b strings.Builder
	for _, c := range goldencampaign.Crawls {
		fmt.Fprintf(&b, "%s=%x ", c, sha256.Sum256(o.stores[c]))
	}
	fmt.Fprintf(&b, "report=%x", sha256.Sum256(o.report))
	return b.String()
}

// runCampaignOnce is the paper's pipeline from crawl to tables: every
// leg crawled with crawler.RunWorld, each store saved, and the report
// rendered over the saved stores. A timed campaign turns on the
// crawler's stage timings and, in a traced run, records spans: one per
// leg, carrying the leg's stage busy time, and one per save, load and
// report.
func runCampaignOnce(r *run, legs []leg, worlds []*websim.World, seed uint64, timed bool) (*campaignOutput, error) {
	var tr *tracer
	out := &campaignOutput{stores: map[groundtruth.CrawlID][]byte{}}
	if timed {
		tr = r.tr
		out.layers = &crawlLayers{busy: map[string]time.Duration{}}
	}
	root := tr.start("e2e.campaign", 0)
	stores := map[groundtruth.CrawlID]*store.Store{}
	for _, c := range goldencampaign.Crawls {
		stores[c] = store.New()
	}
	for i, lg := range legs {
		sp := tr.start("crawler.leg", root.id)
		sum, err := crawler.RunWorld(crawler.Config{
			Crawl: lg.crawl, OS: lg.os, Scale: crawlScale, Seed: seed, Workers: r.nproc, StageTimings: timed,
		}, worlds[i], stores[lg.crawl])
		if err != nil {
			return nil, fmt.Errorf("crawling %s: %w", lg, err)
		}
		out.visits += sum.Attempted
		if timed {
			// The leg's layer time per worker: what of the leg's wall
			// the layers cover when the workers run side by side.
			sp.endBusy(out.layers.add(sum) / time.Duration(r.nproc))
		}
	}
	for _, c := range goldencampaign.Crawls {
		sp := tr.start("store.save", root.id)
		var buf bytes.Buffer
		if err := stores[c].Save(&buf); err != nil {
			return nil, fmt.Errorf("saving %s: %w", c, err)
		}
		sp.end()
		out.stores[c] = buf.Bytes()
	}
	var err error
	out.report, err = renderReport(tr, root.id, out.stores)
	root.end()
	if timed {
		for _, c := range goldencampaign.Crawls {
			st := stores[c]
			out.layers.records += st.NumPages() + st.NumLocals() + st.NumNetLogs()
			st.ForEachPage(func(p *store.PageRecord) { out.layers.events += p.Events })
			out.layers.saveMB += float64(len(out.stores[c])) / 1e6
		}
	}
	return out, err
}

// renderReport mounts the saved stores into one store, as knockreport
// does, and renders every table and figure.
func renderReport(tr *tracer, parent int64, saved map[groundtruth.CrawlID][]byte) ([]byte, error) {
	sp := tr.start("store.load", parent)
	merged := store.New()
	for _, c := range goldencampaign.Crawls {
		if err := merged.Load(bytes.NewReader(saved[c])); err != nil {
			return nil, fmt.Errorf("loading %s: %w", c, err)
		}
	}
	sp.end()
	sp = tr.start("report.write_all", parent)
	var rep bytes.Buffer
	report.WriteAll(&rep, merged, nil)
	sp.end()
	pipeline.ReleaseIndex(merged)
	return rep.Bytes(), nil
}

// measureCampaigns runs campaigns back to back for about budget (at
// least two) and returns each one's output and wall time, and the
// runtime counters' growth over the campaigns alone.
func measureCampaigns(r *run, legs []leg, worlds []*websim.World, timed bool, budget time.Duration) ([]*campaignOutput, []time.Duration, runtimeSample, error) {
	var outs []*campaignOutput
	var walls []time.Duration
	var rt runtimeSample
	start := time.Now()
	for len(walls) < 2 || time.Since(start)+walls[len(walls)-1] <= budget {
		// Every campaign starts from a collected heap, as a fresh
		// campaign process would after binding its worlds. The forced
		// collection stays outside the runtime counters' window.
		runtime.GC()
		s0 := sampleRuntime()
		t0 := time.Now()
		out, err := runCampaignOnce(r, legs, worlds, r.seed, timed)
		if err != nil {
			return nil, nil, rt, err
		}
		walls = append(walls, time.Since(t0))
		rt = rt.add(sampleRuntime().sub(s0))
		out.compact()
		outs = append(outs, out)
		r.attempted += int64(out.visits)
	}
	return outs, walls, rt, nil
}

// checkSame fails the run unless every output equals the reference.
func checkSame(r *run, what string, ref *campaignOutput, outs []*campaignOutput) {
	for i, o := range outs {
		r.check(o.digest() == ref.digest(), "%s: run %d outputs differ from the first run: %s vs %s", what, i+1, o.digest(), ref.digest())
	}
}

func runCampaign(r *run) error {
	legs := campaignLegs()
	var worlds []*websim.World
	setup, err := medianSetup(func() (time.Duration, error) {
		// Drop the previous set first, so only one is live at a time.
		worlds = nil
		t0 := time.Now()
		w, err := buildWorlds(r.tr, 0, legs, crawlScale, r.seed)
		worlds = w
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	r.setE2E(mSetup, setup, "s")
	if r.traced {
		r.setLayer("websim.build_ms", 1000*setup, "ms")
	}

	budget := r.seconds
	if r.traced {
		budget /= 2
	}
	// The first campaign warms the process up and is not measured; its
	// outputs are the reference every later run must reproduce.
	warm, err := runCampaignOnce(r, legs, worlds, r.seed, false)
	if err != nil {
		return err
	}
	r.attempted += int64(warm.visits)
	outs, walls, rt, err := measureCampaigns(r, legs, worlds, false, budget)
	if err != nil {
		return err
	}
	r.recordPeakRSS()
	checkSame(r, "campaign", warm, outs)
	var rates, wallMS []float64
	var visits int64
	for i, w := range walls {
		rates = append(rates, float64(outs[i].visits)/w.Seconds())
		wallMS = append(wallMS, ms(w))
		visits += int64(outs[i].visits)
	}
	rate := median(rates)
	r.setE2E(mThroughput, rate, "1/s")
	r.setE2E(mP50, median(wallMS), "ms")
	fmt.Printf("campaign: %d runs of %d visits, %.0f pages/s (median), walls %v\n", len(walls), outs[0].visits, rate, walls)

	if r.traced {
		r.recordRuntime(rt, visits)
		tOuts, tWalls, _, err := measureCampaigns(r, legs, worlds, true, budget)
		if err != nil {
			return err
		}
		checkSame(r, "timed campaign", warm, tOuts)
		var tRates []float64
		for i, w := range tWalls {
			tRates = append(tRates, float64(tOuts[i].visits)/w.Seconds())
		}
		r.setLayer("trace.overhead_share", 1-median(tRates)/rate, "ratio")
		recordCrawlLayers(r.setLayer, r.tr, tOuts)
	}
	// A small fleet campaign: its stores must equal a single-process
	// crawl's, and in a traced run it gives the fleet layers.
	fres, err := runFleet(r)
	if err != nil {
		return err
	}
	if r.traced {
		recordFleetLayers(r.setLayer, fres)
		if err := probeLayers(r, nil, nil, nil); err != nil {
			return err
		}
	}
	return checkGolden(r)
}

// crawlStageLayer names the layer each crawler stage belongs to.
var crawlStageLayer = map[string]string{
	"visit": "browser.visit", "detect": "pipeline.process", "infer": "pipeline.process",
	"classify": "pipeline.process", "netlog": "store.netlog", "commit": "store.commit",
}

// recordCrawlLayers turns timed campaigns' stage busy times, counts and
// spans into the browser, pipeline, store and report per-layer metrics,
// and hands the stage busy times to the tracer's self-time table.
func recordCrawlLayers(set func(string, float64, string), tr *tracer, outs []*campaignOutput) {
	busy := map[string]time.Duration{}
	var visits, findings, records, events int
	for _, o := range outs {
		for stage, d := range o.layers.busy {
			busy[crawlStageLayer[stage]] += d
		}
		visits += o.visits
		findings += o.layers.findings
		records += o.layers.records
		events += o.layers.events
	}
	for layer, d := range busy {
		tr.addBusy(layer, visits, d)
	}
	perVisitUS := func(layer string) float64 { return us(busy[layer]) / float64(visits) }
	medianMS := func(name string) float64 {
		var xs []float64
		for _, d := range tr.durations(name) {
			xs = append(xs, ms(d))
		}
		return median(xs)
	}
	n := float64(len(outs))
	set("browser.visit_us", perVisitUS("browser.visit"), "us")
	set("browser.events_per_visit", float64(events)/float64(visits), "count")
	set("pipeline.process_us", perVisitUS("pipeline.process"), "us")
	set("pipeline.findings", float64(findings)/n, "count")
	set("store.commit_us", perVisitUS("store.commit"), "us")
	set("store.records", float64(records)/n, "count")
	// Three saves per campaign: report their sum per campaign.
	set("store.save_ms", 3*medianMS("store.save"), "ms")
	set("store.save_mb", outs[0].layers.saveMB, "MB")
	set("report.write_all_ms", medianMS("report.write_all"), "ms")
}

// checkGolden crawls the pinned golden configuration (scale 0.02, seed
// 20210603, NetLogs retained) and compares each store's SHA-256 with
// testdata/golden/stores.sha256.
func checkGolden(r *run) error {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "stores.sha256"))
	if err != nil {
		return fmt.Errorf("reading golden hashes: %w", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			want[strings.TrimSuffix(f[1], ".jsonl")] = f[0]
		}
	}
	for _, c := range goldencampaign.Crawls {
		st := store.New()
		sums, err := crawler.RunAll(crawler.Config{
			Crawl: c, Scale: goldencampaign.Scale, Seed: goldencampaign.Seed, RetainLogs: true, Workers: r.nproc,
		}, st)
		if err != nil {
			return fmt.Errorf("golden crawl %s: %w", c, err)
		}
		for _, s := range sums {
			r.attempted += int64(s.Attempted)
		}
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			return err
		}
		got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
		r.check(got == want[string(c)], "golden %s: store hash %s, want %s", c, got, want[string(c)])
	}
	return nil
}
