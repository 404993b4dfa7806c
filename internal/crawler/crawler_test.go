package crawler

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/health"
	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/localnet"
	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
	"github.com/knockandtalk/knockandtalk/internal/websim"
)

const testSeed = 0xBEEF

func smallCfg(crawl groundtruth.CrawlID, os hostenv.OS, scale float64) Config {
	return Config{Crawl: crawl, OS: os, Scale: scale, Seed: testSeed, Workers: 4}
}

func TestCrawlSmallTop2020Windows(t *testing.T) {
	dst := store.New()
	sum, err := Run(smallCfg(groundtruth.CrawlTop2020, hostenv.Windows, 0.01), dst)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Attempted != 1000 {
		t.Fatalf("attempted = %d, want 1000", sum.Attempted)
	}
	rate := float64(sum.Successful) / float64(sum.Attempted)
	if rate < 0.85 || rate > 0.95 {
		t.Errorf("success rate = %.3f, want ~0.90 (Table 1)", rate)
	}
	// DNS failures dominate errors.
	if nx := sum.Errors["ERR_NAME_NOT_RESOLVED"]; nx == 0 || float64(nx)/float64(sum.Failed) < 0.75 {
		t.Errorf("NXDOMAIN errors = %d of %d failures, want ~90%%", nx, sum.Failed)
	}
	if dst.NumPages() != 1000 {
		t.Errorf("stored pages = %d", dst.NumPages())
	}
	// ebay.com (rank 104) is in scope and scans localhost on Windows:
	// 14 WSS probes must be extracted.
	tm := dst.Locals(func(l *store.LocalRequest) bool {
		return l.Domain == "ebay.com" && l.Dest == "localhost"
	})
	if len(tm) != 14 {
		t.Fatalf("ebay.com localhost requests = %d, want 14", len(tm))
	}
	for _, l := range tm {
		if l.Scheme != "wss" || !l.SOPExempt {
			t.Errorf("TM probe not WSS/SOP-exempt: %+v", l)
		}
		if l.Delay < 9*time.Second || l.Delay > 17*time.Second {
			t.Errorf("TM probe delay %v outside the Figure 5 envelope", l.Delay)
		}
		if l.NetError == "" && l.Port != 3389 {
			t.Errorf("probe to closed port %d did not fail", l.Port)
		}
	}
}

func TestCrawlLinuxSeesNoThreatMetrix(t *testing.T) {
	dst := store.New()
	if _, err := Run(smallCfg(groundtruth.CrawlTop2020, hostenv.Linux, 0.01), dst); err != nil {
		t.Fatal(err)
	}
	tm := dst.Locals(func(l *store.LocalRequest) bool { return l.Domain == "ebay.com" })
	if len(tm) != 0 {
		t.Errorf("ebay.com generated %d local requests on Linux, want 0", len(tm))
	}
	// hola.org (rank 244) probes localhost on all OSes.
	hola := dst.Locals(func(l *store.LocalRequest) bool { return l.Domain == "hola.org" })
	if len(hola) != 10 {
		t.Errorf("hola.org localhost requests = %d, want 10 (ports 6880-9)", len(hola))
	}
}

func TestCrawlOfflineFails(t *testing.T) {
	world, err := websim.Build(groundtruth.CrawlTop2020, hostenv.Linux, 0.001, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	world.Net.SetOnline(false)
	_, err = RunWorld(smallCfg(groundtruth.CrawlTop2020, hostenv.Linux, 0.001), world, store.New())
	if err != ErrOffline {
		t.Fatalf("err = %v, want ErrOffline", err)
	}
	// The check can be disabled.
	cfg := smallCfg(groundtruth.CrawlTop2020, hostenv.Linux, 0.001)
	cfg.SkipConnectivityCheck = true
	if _, err := RunWorld(cfg, world, store.New()); err != nil {
		t.Fatalf("with check skipped: %v", err)
	}
}

func TestCrawlDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) *Summary {
		cfg := smallCfg(groundtruth.CrawlTop2020, hostenv.Windows, 0.005)
		cfg.Workers = workers
		sum, err := Run(cfg, store.New())
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	a, b := run(1), run(8)
	if a.Successful != b.Successful || a.Failed != b.Failed || a.LocalRequests != b.LocalRequests {
		t.Errorf("crawl results depend on worker count: %+v vs %+v", a, b)
	}
}

func TestRunAllCoversCrawlOSes(t *testing.T) {
	sums, err := RunAll(Config{Crawl: groundtruth.CrawlTop2021, Scale: 0.002, Seed: testSeed, Workers: 2}, store.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("2021 crawl covers W and L, got %d summaries", len(sums))
	}
	if sums[0].OS != hostenv.Windows || sums[1].OS != hostenv.Linux {
		t.Errorf("OS order wrong: %v, %v", sums[0].OS, sums[1].OS)
	}
}

func TestMaliciousCrawlDetectsCloners(t *testing.T) {
	dst := store.New()
	sum, err := Run(smallCfg(groundtruth.CrawlMalicious, hostenv.Windows, 0.002), dst)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Attempted < 250 {
		t.Fatalf("attempted = %d", sum.Attempted)
	}
	// The phishing clone of ebay.com carries ThreatMetrix probes.
	clone := dst.Locals(func(l *store.LocalRequest) bool { return l.Domain == "customer-ebay.com" })
	if len(clone) != 14 {
		t.Errorf("customer-ebay.com localhost requests = %d, want 14", len(clone))
	}
	for _, l := range clone {
		if l.Category != "phishing" {
			t.Errorf("clone finding category = %q", l.Category)
		}
	}
}

func TestLANFindingsViaMalware(t *testing.T) {
	dst := store.New()
	if _, err := Run(smallCfg(groundtruth.CrawlMalicious, hostenv.Windows, 0.002), dst); err != nil {
		t.Fatal(err)
	}
	lan := dst.Locals(func(l *store.LocalRequest) bool { return l.Dest == "lan" && l.Domain == "test.laitspa.it" })
	if len(lan) != 1 {
		t.Fatalf("test.laitspa.it LAN findings = %d, want 1", len(lan))
	}
	if lan[0].Host != "10.2.70.15" || lan[0].Port != 80 {
		t.Errorf("LAN finding wrong: %+v", lan[0])
	}
}

func TestOutageMidCrawlSkipsWithoutFalseFailures(t *testing.T) {
	world, err := websim.Build(groundtruth.CrawlTop2020, hostenv.Linux, 0.002, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Take the network down after the crawl starts; bring it back up
	// shortly afterwards. Targets visited during the outage are skipped
	// but never recorded as website failures.
	go func() {
		time.Sleep(2 * time.Millisecond)
		world.Net.SetOnline(false)
		time.Sleep(5 * time.Millisecond)
		world.Net.SetOnline(true)
	}()
	cfg := smallCfg(groundtruth.CrawlTop2020, hostenv.Linux, 0.002)
	cfg.Workers = 2
	dst := store.New()
	sum, err := RunWorld(cfg, world, dst)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Attempted+sum.Skipped != len(world.Targets) {
		t.Errorf("attempted %d + skipped %d != targets %d", sum.Attempted, sum.Skipped, len(world.Targets))
	}
	if dst.NumPages() != sum.Attempted {
		t.Errorf("pages stored %d != attempted %d (skips must not be recorded)", dst.NumPages(), sum.Attempted)
	}
}

func TestRestrictedPortBlockedButLogged(t *testing.T) {
	// A page step to a Chrome-restricted port (6000, X11) is refused by
	// the browser before any socket opens — but the attempt is logged
	// and thus detectable.
	dst := store.New()
	if _, err := Run(smallCfg(groundtruth.CrawlTop2020, hostenv.Windows, 0.01), dst); err != nil {
		t.Fatal(err)
	}
	// No ground-truth probe uses a restricted port, so nothing in the
	// store should carry ERR_UNSAFE_PORT.
	bad := dst.Locals(func(l *store.LocalRequest) bool { return l.NetError == "ERR_UNSAFE_PORT" })
	if len(bad) != 0 {
		t.Errorf("unexpected unsafe-port blocks: %+v", bad)
	}
}

func TestLoginPageExtension(t *testing.T) {
	// Landing-page crawl of the top 5K on Windows: walmart.com (rank
	// 131) is quiet. Login-page crawl: it scans localhost — the §6
	// lower-bound demonstration.
	landing := store.New()
	if _, err := Run(smallCfg(groundtruth.CrawlTop2020, hostenv.Windows, 0.05), landing); err != nil {
		t.Fatal(err)
	}
	if n := len(landing.Locals(func(l *store.LocalRequest) bool { return l.Domain == "walmart.com" })); n != 0 {
		t.Fatalf("walmart.com landing page generated %d local requests, want 0", n)
	}

	login := store.New()
	cfg := smallCfg(groundtruth.CrawlTop2020, hostenv.Windows, 0.05)
	cfg.PagePath = websim.LoginPath
	if _, err := Run(cfg, login); err != nil {
		t.Fatal(err)
	}
	if n := len(login.Locals(func(l *store.LocalRequest) bool { return l.Domain == "walmart.com" })); n != 14 {
		t.Fatalf("walmart.com login page generated %d local requests, want 14 (ThreatMetrix)", n)
	}
	// Landing-page scanners keep scanning on their login pages too.
	if n := len(login.Locals(func(l *store.LocalRequest) bool { return l.Domain == "ebay.com" })); n != 14 {
		t.Fatalf("ebay.com login page generated %d local requests, want 14", n)
	}
	// And the overall site count strictly grows: landing is a lower bound.
	landSites := map[string]bool{}
	for _, l := range landing.Locals(nil) {
		landSites[l.Domain] = true
	}
	loginSites := map[string]bool{}
	for _, l := range login.Locals(nil) {
		loginSites[l.Domain] = true
	}
	if len(loginSites) <= len(landSites) {
		t.Errorf("login crawl found %d sites, landing %d; expected strictly more", len(loginSites), len(landSites))
	}
}

func TestRetainLogsKeepsCapturesForActiveSites(t *testing.T) {
	dst := store.New()
	cfg := smallCfg(groundtruth.CrawlTop2020, hostenv.Windows, 0.01)
	cfg.RetainLogs = true
	if _, err := Run(cfg, dst); err != nil {
		t.Fatal(err)
	}
	// 5 localhost-active sites in the top 1000 → 5 retained captures.
	if got := dst.NumNetLogs(); got != 5 {
		t.Fatalf("retained captures = %d, want 5", got)
	}
	log, ok, err := dst.NetLog(string(groundtruth.CrawlTop2020), "Windows", "ebay.com")
	if err != nil || !ok {
		t.Fatalf("NetLog(ebay.com) = ok=%v err=%v", ok, err)
	}
	if log.Len() == 0 {
		t.Fatal("retained capture empty")
	}
	// The capture round-trips through the detector identically.
	findings := localnet.FromLog(log)
	if len(findings) != 14 {
		t.Errorf("findings from retained capture = %d, want 14", len(findings))
	}
	if _, ok, _ := dst.NetLog(string(groundtruth.CrawlTop2020), "Windows", "site00000.example"); ok {
		t.Error("quiet site should have no retained capture")
	}
}

func TestRetainedLogsSurviveSaveLoad(t *testing.T) {
	dst := store.New()
	cfg := smallCfg(groundtruth.CrawlTop2020, hostenv.Windows, 0.01)
	cfg.RetainLogs = true
	if _, err := Run(cfg, dst); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dst.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back := store.New()
	if err := back.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if back.NumNetLogs() != dst.NumNetLogs() {
		t.Fatalf("captures lost in round trip: %d vs %d", back.NumNetLogs(), dst.NumNetLogs())
	}
	log, ok, err := back.NetLog(string(groundtruth.CrawlTop2020), "Windows", "hola.org")
	if err != nil || !ok || log.Len() == 0 {
		t.Fatalf("reloaded capture broken: ok=%v err=%v", ok, err)
	}
}

func TestResumeSkipsCompletedTargets(t *testing.T) {
	world, err := websim.Build(groundtruth.CrawlTop2020, hostenv.Windows, 0.005, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	dst := store.New()
	cfg := smallCfg(groundtruth.CrawlTop2020, hostenv.Windows, 0.005)

	// First pass: crawl only the first 200 targets (simulate an
	// interruption by crawling a truncated world).
	full := world.Targets
	world.Targets = full[:200]
	if _, err := RunWorld(cfg, world, dst); err != nil {
		t.Fatal(err)
	}
	world.Targets = full
	if dst.NumPages() != 200 {
		t.Fatalf("partial crawl stored %d pages", dst.NumPages())
	}

	// Resume over the full world: the 200 finished targets are skipped,
	// the rest crawled, with no duplicate page records.
	cfg.Resume = true
	sum, err := RunWorld(cfg, world, dst)
	if err != nil {
		t.Fatal(err)
	}
	if sum.AlreadyDone != 200 {
		t.Errorf("AlreadyDone = %d, want 200", sum.AlreadyDone)
	}
	if sum.Attempted != len(world.Targets)-200 {
		t.Errorf("resumed attempts = %d, want %d", sum.Attempted, len(world.Targets)-200)
	}
	if dst.NumPages() != len(world.Targets) {
		t.Errorf("total pages = %d, want %d", dst.NumPages(), len(world.Targets))
	}
	seen := map[string]int{}
	for _, p := range dst.Pages(nil) {
		seen[p.Domain]++
		if seen[p.Domain] > 1 {
			t.Fatalf("duplicate page record for %s", p.Domain)
		}
	}
}

func TestParseHTMLCrawlEquivalence(t *testing.T) {
	// The full-HTML pipeline (tokenize → extract → interpret) must find
	// exactly the same local-network activity as the precompiled fast
	// path, across a whole crawl slice.
	run := func(parse bool) *store.Store {
		dst := store.New()
		cfg := smallCfg(groundtruth.CrawlTop2020, hostenv.Windows, 0.01)
		cfg.ParseHTML = parse
		if _, err := Run(cfg, dst); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	fast, parsed := run(false), run(true)
	key := func(l *store.LocalRequest) string {
		return l.Domain + "|" + l.URL + "|" + l.Initiator + "|" + l.NetError
	}
	fastSet := map[string]bool{}
	for _, l := range fast.Locals(nil) {
		fastSet[key(&l)] = true
	}
	parsedSet := map[string]bool{}
	for _, l := range parsed.Locals(nil) {
		parsedSet[key(&l)] = true
	}
	if len(fastSet) != len(parsedSet) {
		t.Fatalf("local request sets differ in size: fast %d, parsed %d", len(fastSet), len(parsedSet))
	}
	for k := range fastSet {
		if !parsedSet[k] {
			t.Errorf("fast-path finding missing from HTML path: %s", k)
		}
	}
	// Page-level outcomes agree too.
	if fast.NumPages() != parsed.NumPages() {
		t.Errorf("page counts differ: %d vs %d", fast.NumPages(), parsed.NumPages())
	}
}

func TestSaveBytesMatchGolden(t *testing.T) {
	// The golden file was produced by gen_golden.go against the
	// pre-sharding store: the sharded store and the batched crawl path
	// must reproduce its Save output byte for byte.
	want, err := os.ReadFile("testdata/golden-top2020-windows-s005.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	dst := store.New()
	if _, err := Run(smallCfg(groundtruth.CrawlTop2020, hostenv.Windows, 0.005), dst); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dst.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := buf.Bytes()
		line := 1
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				lo := i - 60
				if lo < 0 {
					lo = 0
				}
				hi := i + 60
				if hi > len(got) {
					hi = len(got)
				}
				t.Fatalf("Save output diverges from golden at byte %d (line %d):\n got …%s…\nwant …%s…",
					i, line, got[lo:hi], want[lo:min(hi, len(want))])
			}
			if got[i] == '\n' {
				line++
			}
		}
		t.Fatalf("Save output length %d, golden %d (common prefix identical)", len(got), len(want))
	}
}

func TestResumeRespectsPagePath(t *testing.T) {
	// Regression: the resume done-set used to key on domain alone, so a
	// completed landing-page crawl made a login-page crawl (PagePath) of
	// the same store skip every site as already done.
	world, err := websim.Build(groundtruth.CrawlTop2020, hostenv.Windows, 0.002, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	dst := store.New()
	landing := smallCfg(groundtruth.CrawlTop2020, hostenv.Windows, 0.002)
	if _, err := RunWorld(landing, world, dst); err != nil {
		t.Fatal(err)
	}

	login := landing
	login.PagePath = websim.LoginPath
	login.Resume = true
	sum, err := RunWorld(login, world, dst)
	if err != nil {
		t.Fatal(err)
	}
	if sum.AlreadyDone != 0 {
		t.Errorf("login crawl skipped %d targets on landing-page records", sum.AlreadyDone)
	}
	if sum.Attempted != len(world.Targets) {
		t.Errorf("login crawl attempted %d of %d targets", sum.Attempted, len(world.Targets))
	}

	// A second resumed login crawl finds its own records and skips all.
	sum2, err := RunWorld(login, world, dst)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.AlreadyDone != len(world.Targets) || sum2.Attempted != 0 {
		t.Errorf("resumed login crawl: AlreadyDone=%d Attempted=%d, want %d/0",
			sum2.AlreadyDone, sum2.Attempted, len(world.Targets))
	}
}

func TestCrawlManyWorkersSharedStore(t *testing.T) {
	// Exercises the sharded store and per-worker tallies under heavy
	// worker concurrency; run with -race in CI.
	world, err := websim.Build(groundtruth.CrawlTop2020, hostenv.Windows, 0.005, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg(groundtruth.CrawlTop2020, hostenv.Windows, 0.005)
	cfg.Workers = 8
	cfg.RetainLogs = true
	dst := store.New()
	sum, err := RunWorld(cfg, world, dst)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Attempted != len(world.Targets) {
		t.Errorf("attempted %d of %d", sum.Attempted, len(world.Targets))
	}
	if dst.NumPages() != sum.Attempted {
		t.Errorf("pages stored %d != attempted %d", dst.NumPages(), sum.Attempted)
	}
}

// TestTracedCrawlMatchesUntracedGolden verifies that full
// instrumentation is observation only: a crawl with the registry,
// tracer, stage timings, AND the live health plane (tracker plus a
// sweeping watchdog) all enabled must produce a byte-identical store,
// and the per-stage busy time must agree between the Summary tally,
// the metrics registry, and the trace file — all three see the same
// single measurement per stage.
func TestTracedCrawlMatchesUntracedGolden(t *testing.T) {
	cfg := smallCfg(groundtruth.CrawlTop2020, hostenv.Windows, 0.01)

	plain := store.New()
	if _, err := Run(cfg, plain); err != nil {
		t.Fatal(err)
	}

	var traceBuf bytes.Buffer
	traced := cfg
	traced.Metrics = telemetry.NewRegistry()
	traced.Tracer = telemetry.NewTracer(&traceBuf, telemetry.TracerOptions{Buffer: 1 << 14})
	traced.Health = health.New(health.Options{})
	wd := health.NewWatchdog(traced.Health, health.WatchdogOptions{
		Interval:   time.Millisecond, // sweep aggressively mid-crawl
		Registry:   traced.Metrics,
		TraceDrops: traced.Tracer.Dropped,
	})
	wd.Start()
	tracedStore := store.New()
	sum, err := Run(traced, tracedStore)
	if err != nil {
		t.Fatal(err)
	}
	wd.Stop()
	if err := traced.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	if n := traced.Tracer.Dropped(); n > 0 {
		t.Fatalf("%d trace records dropped; raise the buffer", n)
	}
	// The health plane observed the whole crawl...
	hs := traced.Health.Status()
	if len(hs.Crawls) != 1 || hs.Crawls[0].Visited != uint64(sum.Attempted) || !hs.Crawls[0].Done {
		t.Fatalf("health leg disagrees with summary: %+v vs attempted %d", hs.Crawls, sum.Attempted)
	}

	var want, got bytes.Buffer
	if err := plain.Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := tracedStore.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("instrumented crawl changed the store: %d vs %d bytes", want.Len(), got.Len())
	}

	recs, err := telemetry.ReadTraces(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != sum.Attempted {
		t.Fatalf("trace has %d records, crawl attempted %d", len(recs), sum.Attempted)
	}
	ts := telemetry.Summarize(recs)
	for _, stage := range []string{"visit", "detect", "commit"} {
		st := ts.Stages[stage]
		if st == nil {
			t.Fatalf("trace has no %s spans", stage)
		}
		if fromTally := int64(sum.StageBusy[stage]); st.BusyNS != fromTally {
			t.Errorf("%s busy: trace %d ns, tally %d ns", stage, st.BusyNS, fromTally)
		}
	}
	// The registry sees the same detect measurements the trace carries,
	// to the nanosecond.
	detect := traced.Metrics.Histogram(pipeline.MetricStageNS, "stage", "detect").Snapshot()
	if st := ts.Stages["detect"]; detect.Sum != uint64(st.BusyNS) || detect.Count != st.Runs {
		t.Errorf("detect: registry %d runs / %d ns busy, trace %d / %d", detect.Count, detect.Sum, st.Runs, st.BusyNS)
	}
}

// TestStatusEndpointAgreesWithSummary crawls with the health plane on
// and a live status listener up, then scrapes /status over HTTP: the
// reported progress must match the final crawler.Summary exactly on
// counts, and the throughput must agree with the Summary-derived rate
// within tolerance (the leg's clock starts inside RunWorld, a hair
// after Summary's). /metrics from the same listener must pass the
// strict exposition parser.
func TestStatusEndpointAgreesWithSummary(t *testing.T) {
	cfg := smallCfg(groundtruth.CrawlTop2020, hostenv.Windows, 0.01)
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Health = health.New(health.Options{})
	srv := httptest.NewServer(health.Handler(cfg.Health, cfg.Metrics))
	defer srv.Close()

	dst := store.New()
	sum, err := Run(cfg, dst)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st health.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Crawls) != 1 {
		t.Fatalf("status legs = %d, want 1", len(st.Crawls))
	}
	cs := st.Crawls[0]
	if cs.Crawl != string(sum.Crawl) || cs.OS != sum.OS.String() {
		t.Errorf("leg identity %s/%s, summary %s/%s", cs.Crawl, cs.OS, sum.Crawl, sum.OS)
	}
	if cs.Visited != uint64(sum.Attempted) || cs.Failed != uint64(sum.Failed) ||
		cs.Skipped != uint64(sum.Skipped) || cs.ResumeSkipped != uint64(sum.AlreadyDone) ||
		cs.RetentionErrors != uint64(sum.RetentionErrors) {
		t.Errorf("status counts %+v disagree with summary %+v", cs, sum)
	}
	if !cs.Done || cs.ETASeconds != 0 {
		t.Errorf("finished leg: done=%v eta=%v", cs.Done, cs.ETASeconds)
	}
	wantRate := float64(sum.Attempted+sum.Skipped+sum.AlreadyDone) / sum.Elapsed.Seconds()
	if cs.PagesPerSec <= 0 || math.Abs(cs.PagesPerSec-wantRate)/wantRate > 0.25 {
		t.Errorf("status rate %.2f/s, summary rate %.2f/s (beyond 25%% tolerance)",
			cs.PagesPerSec, wantRate)
	}

	// The same listener's /metrics passes the strict parser and carries
	// the crawl counters the registry recorded.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := telemetry.ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics failed strict parse: %v", err)
	}
	s := doc.Series("crawl_visit_ns_count", "crawl", string(sum.Crawl), "os", sum.OS.String())
	if s == nil || s.Raw != fmt.Sprint(sum.Attempted) {
		t.Errorf("crawl_visit_ns_count = %+v, want %d", s, sum.Attempted)
	}
}

// TestCheckpointCadence pins the mid-leg durability contract: a
// WAL-backed crawl checkpoints every CheckpointEvery visits plus once
// at end of leg, and the WAL directory alone reproduces the crawl.
func TestCheckpointCadence(t *testing.T) {
	dir := t.TempDir()
	dst, lg, _, err := store.Open(dir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	cfg := smallCfg(groundtruth.CrawlTop2020, hostenv.Windows, 0.001)
	cfg.CheckpointEvery = 10
	cfg.Checkpoint = func() error {
		calls++
		return lg.Checkpoint()
	}
	sum, err := Run(cfg, dst)
	if err != nil {
		t.Fatal(err)
	}
	// attempted/10 interval checkpoints plus the end-of-leg one. The
	// counter increments once per committed visit with no concurrent
	// writers beyond the pool, so the count is exact.
	if want := sum.Attempted/10 + 1; calls != want {
		t.Errorf("checkpoint calls = %d, want %d (%d visits / 10 + final)", calls, want, sum.Attempted)
	}
	if sum.CheckpointErrors != 0 {
		t.Errorf("checkpoint errors = %d", sum.CheckpointErrors)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	back, lg2, rec, err := store.Open(dir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if rec.SegmentRecords+rec.WALRecords == 0 || back.NumPages() != dst.NumPages() || back.NumLocals() != dst.NumLocals() {
		t.Errorf("recovery (%d pages / %d locals) != crawl (%d / %d)",
			back.NumPages(), back.NumLocals(), dst.NumPages(), dst.NumLocals())
	}

	// A failing checkpoint is counted, never fatal.
	cfg2 := smallCfg(groundtruth.CrawlTop2020, hostenv.Linux, 0.001)
	cfg2.CheckpointEvery = 25
	cfg2.Checkpoint = func() error { return fmt.Errorf("disk full") }
	sum2, err := Run(cfg2, store.New())
	if err != nil {
		t.Fatal(err)
	}
	if want := sum2.Attempted/25 + 1; sum2.CheckpointErrors != want {
		t.Errorf("checkpoint errors = %d, want %d", sum2.CheckpointErrors, want)
	}
}
