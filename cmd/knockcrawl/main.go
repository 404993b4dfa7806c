// Command knockcrawl runs a crawl campaign against the synthetic web
// and writes the telemetry store as JSONL.
//
// Usage:
//
//	knockcrawl -crawl top100k-2020 -os all -scale 0.1 -out crawl.jsonl
//	knockcrawl -crawl top100k-2020 -scale 0.1 -trace-out crawl.trace.jsonl -stage-timings
//	knockcrawl -crawl top100k-2020 -status-addr :6061   # live /status, /healthz, /metrics
//	knockcrawl -crawl top100k-2020 -wal ./2020.wal -out 2020.jsonl   # durable: kill -9 and rerun resumes
//
// A full-study reproduction (scale 1, every OS, all three campaigns):
//
//	knockcrawl -crawl top100k-2020 -os all -out 2020.jsonl
//	knockcrawl -crawl top100k-2021 -os all -out 2021.jsonl
//	knockcrawl -crawl malicious    -os all -out mal.jsonl
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/crawler"
	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/health"
	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

var logger *slog.Logger

func main() {
	var (
		crawlName  = flag.String("crawl", "top100k-2020", "campaign: top100k-2020, top100k-2021, or malicious")
		osName     = flag.String("os", "all", "OS to crawl: Windows, Linux, Mac, or all")
		scale      = flag.Float64("scale", 1.0, "population scale in (0, 1]")
		seed       = flag.Uint64("seed", 1, "deterministic seed")
		workers    = flag.Int("workers", 0, "concurrent browser instances (0 = GOMAXPROCS)")
		window     = flag.Duration("window", 20*time.Second, "per-page observation window")
		out        = flag.String("out", "", "output JSONL path (empty = no persistence)")
		walDir     = flag.String("wal", "", "durable WAL directory: commits are journaled and checkpointed mid-crawl, and a prior run found there is resumed")
		ckptEvery  = flag.Int("checkpoint-every", 0, "visits between WAL durability checkpoints (0 = default)")
		page       = flag.String("page", "/", "page to visit on each site (/ = landing, /login = internal-pages extension)")
		netProfile = flag.String("net-profile", "", "network-condition profile (nominal, residential-congested, mobile-3g, satellite, lossy-wifi, ...); empty = nominal")
		retain     = flag.Bool("retain", false, "retain raw NetLog captures for visits with local-network activity")
		parseHTML  = flag.Bool("parsehtml", false, "crawl through the real HTML pipeline instead of the precompiled fast path")
		traceOut   = flag.String("trace-out", "", "write one JSONL trace record per visit to this path (inspect with knocktrace)")
		timings    = flag.Bool("stage-timings", false, "print a per-stage busy-time breakdown after the crawl")
		statusAddr = flag.String("status-addr", "", "serve live /status, /healthz, and Prometheus /metrics on this address")
		logFormat  = flag.String("log-format", "text", "diagnostic log format: text or json")
	)
	flag.Parse()
	telemetry.RegisterBuildInfo(nil)

	var err error
	logger, err = health.NewLogger(*logFormat, "knockcrawl")
	if err != nil {
		fmt.Fprintf(os.Stderr, "knockcrawl: %v\n", err)
		os.Exit(1)
	}

	crawl := groundtruth.CrawlID(*crawlName)
	switch crawl {
	case groundtruth.CrawlTop2020, groundtruth.CrawlTop2021, groundtruth.CrawlMalicious:
	default:
		fatal("unknown crawl", "crawl", *crawlName)
	}
	cfg := crawler.Config{
		Crawl: crawl, Scale: *scale, Seed: *seed, Workers: *workers,
		Window: *window, PagePath: *page, RetainLogs: *retain, ParseHTML: *parseHTML,
		NetProfile:   *netProfile,
		StageTimings: *timings,
	}
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			fatal("creating trace file", "path", *traceOut, "err", err)
		}
		defer tf.Close()
		tracer = telemetry.NewTracer(tf, telemetry.TracerOptions{Registry: telemetry.Default()})
		cfg.Tracer = tracer
	}
	if *statusAddr != "" {
		// The live operations plane: progress tracker feeding /status,
		// watchdog alerting on stalls and telemetry loss, and the
		// process-default registry exposed as Prometheus /metrics.
		cfg.Health = health.New(health.Options{})
		cfg.Metrics = telemetry.Default()
		wd := health.NewWatchdog(cfg.Health, health.WatchdogOptions{
			TraceDrops: tracer.Dropped, Logger: logger,
		})
		wd.Start()
		defer wd.Stop()
		_, stopStatus, err := health.Serve(*statusAddr, cfg.Health, cfg.Metrics, logger)
		if err != nil {
			fatal("status listener", "addr", *statusAddr, "err", err)
		}
		defer stopStatus()
	}

	st := store.New()
	if *walDir != "" {
		// Durable mode: every commit is journaled in the WAL directory,
		// checkpointed mid-crawl, and a killed run resumes from whatever
		// the directory replays instead of starting over.
		wst, lg, rec, err := store.Open(*walDir, store.LogOptions{})
		if err != nil {
			fatal("opening wal", "dir", *walDir, "err", err)
		}
		defer func() {
			if err := lg.Close(); err != nil {
				fatal("closing wal", "err", err)
			}
		}()
		st = wst
		cfg.Checkpoint = lg.Checkpoint
		cfg.CheckpointEvery = *ckptEvery
		if n := rec.SegmentRecords + rec.WALRecords; n > 0 {
			cfg.Resume = true
			logger.Info("wal recovered", "dir", *walDir, "records", n,
				"segments", rec.Segments, "truncated_tail", rec.Truncated)
			fmt.Printf("resuming from %s: %d records recovered (%d segments)\n", *walDir, n, rec.Segments)
		}
	}
	var sums []*crawler.Summary
	if *osName == "all" {
		var err error
		sums, err = crawler.RunAll(cfg, st)
		if err != nil {
			fatal("crawl failed", "err", err)
		}
	} else {
		osv, err := hostenv.ParseOS(*osName)
		if err != nil {
			fatal("bad -os", "err", err)
		}
		cfg.OS = osv
		sum, err := crawler.Run(cfg, st)
		if err != nil {
			fatal("crawl failed", "err", err)
		}
		sums = []*crawler.Summary{sum}
	}

	for _, s := range sums {
		logger.Info("crawl complete", "summary", s)
		fmt.Printf("%s on %s: %d attempted, %d ok (%.1f%%), %d failed, %d local requests, %v\n",
			s.Crawl, s.OS, s.Attempted, s.Successful,
			100*float64(s.Successful)/float64(s.Attempted), s.Failed, s.LocalRequests, s.Elapsed.Round(time.Millisecond))
		for err, n := range s.Errors {
			fmt.Printf("    %-32s %d\n", err, n)
		}
		if s.RetentionErrors > 0 {
			fmt.Printf("    WARNING: %d NetLog captures could not be retained\n", s.RetentionErrors)
		}
		if s.CheckpointErrors > 0 {
			fmt.Printf("    WARNING: %d WAL checkpoints failed\n", s.CheckpointErrors)
		}
		printStageBusy(s.StageBusy)
	}

	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fatal("writing trace", "err", err)
		}
		fmt.Printf("wrote %d trace records to %s", tracer.Written(), *traceOut)
		if n := tracer.Dropped(); n > 0 {
			fmt.Printf(" (%d dropped under backpressure)", n)
		}
		fmt.Println()
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("creating output", "path", *out, "err", err)
		}
		defer f.Close()
		if err := st.Save(f); err != nil {
			fatal("saving store", "err", err)
		}
		fmt.Printf("wrote %d page records, %d local requests, %d retained captures to %s\n",
			st.NumPages(), st.NumLocals(), st.NumNetLogs(), *out)
	}
}

// printStageBusy renders the per-stage busy-time breakdown in the
// trace span order (visit first, commit last).
func printStageBusy(busy map[string]time.Duration) {
	if len(busy) == 0 {
		return
	}
	fmt.Println("    stage busy time:")
	for _, name := range crawler.StageNames {
		if d, ok := busy[name]; ok {
			fmt.Printf("      %-10s %v\n", name, d.Round(time.Microsecond))
		}
	}
}

func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}
