// Command knockcampaign runs the full measurement operation of
// Figure 1 — all three crawl populations on every OS each covers —
// persisting one telemetry store per campaign plus a manifest, and
// resuming interrupted runs.
//
// Usage:
//
//	knockcampaign -out ./run -scale 1 -seed 20210603
//	knockcampaign -out ./run -resume        # continue after interruption
//	knockcampaign -out ./run -wal           # durable: survive kill -9 mid-leg, rerun with -resume
//	knockcampaign -out ./run -status-addr :6061   # live /status, /healthz, /metrics
//	knockreport  -in ./run/top100k-2020.jsonl,./run/top100k-2021.jsonl,./run/malicious.jsonl
//	knockdiff    -in ./run/top100k-2020.jsonl,./run/top100k-2021.jsonl,./run/malicious.jsonl
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/campaign"
	"github.com/knockandtalk/knockandtalk/internal/crawler"
	"github.com/knockandtalk/knockandtalk/internal/health"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

var logger *slog.Logger

func main() {
	var (
		out        = flag.String("out", "", "output directory for stores and manifest")
		name       = flag.String("name", "knockandtalk-repro", "campaign name")
		scale      = flag.Float64("scale", 1.0, "population scale in (0, 1]")
		seed       = flag.Uint64("seed", 20210603, "deterministic seed")
		workers    = flag.Int("workers", 0, "concurrent browser instances (0 = GOMAXPROCS)")
		retain     = flag.Bool("retain", false, "retain raw NetLog captures for local-activity visits")
		netProfile = flag.String("net-profile", "", "network-condition profile for every leg (nominal, residential-congested, mobile-3g, satellite, lossy-wifi, ...); empty = nominal")
		resume     = flag.Bool("resume", false, "resume an interrupted campaign in -out")
		wal        = flag.Bool("wal", false, "durable mode: commit through a per-crawl WAL in -out, checkpointed mid-leg, so a killed campaign resumes mid-crawl")
		ckptEvery  = flag.Int("checkpoint-every", 0, "visits between WAL durability checkpoints (0 = default)")
		traceOut   = flag.String("trace-out", "", "write one JSONL trace record per visit to this path (inspect with knocktrace)")
		statusAddr = flag.String("status-addr", "", "serve live /status, /healthz, and Prometheus /metrics on this address")
		logFormat  = flag.String("log-format", "text", "diagnostic log format: text or json")
	)
	flag.Parse()
	telemetry.RegisterBuildInfo(nil)

	var err error
	logger, err = health.NewLogger(*logFormat, "knockcampaign")
	if err != nil {
		fmt.Fprintf(os.Stderr, "knockcampaign: %v\n", err)
		os.Exit(1)
	}
	if *out == "" {
		fatal("-out is required")
	}
	spec := campaign.Spec{
		Name: *name, OutDir: *out, Scale: *scale, Seed: *seed,
		Workers: *workers, RetainLogs: *retain, Resume: *resume,
		NetProfile: *netProfile,
		WAL:        *wal, CheckpointEvery: *ckptEvery,
		// Stage timings are always on: the end-of-run breakdown costs a
		// few clock reads per visit and the manifest records it.
		StageTimings: true,
		Logger:       logger,
	}
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		// The trace commonly lives in the campaign's -out directory,
		// which Run has not created yet.
		if dir := filepath.Dir(*traceOut); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal("creating trace dir", "dir", dir, "err", err)
			}
		}
		tf, err := os.Create(*traceOut)
		if err != nil {
			fatal("creating trace file", "path", *traceOut, "err", err)
		}
		defer tf.Close()
		tracer = telemetry.NewTracer(tf, telemetry.TracerOptions{Registry: telemetry.Default()})
		spec.Tracer = tracer
	}
	if *statusAddr != "" {
		// The live operations plane for multi-week campaigns: every
		// (crawl, OS) leg appears on /status as it runs, the watchdog
		// flags stalled workers and telemetry loss, and the registry is
		// scrapable as Prometheus /metrics.
		spec.Health = health.New(health.Options{})
		spec.Metrics = telemetry.Default()
		wd := health.NewWatchdog(spec.Health, health.WatchdogOptions{
			TraceDrops: tracer.Dropped, Logger: logger,
		})
		wd.Start()
		defer wd.Stop()
		_, stopStatus, err := health.Serve(*statusAddr, spec.Health, spec.Metrics, logger)
		if err != nil {
			fatal("status listener", "addr", *statusAddr, "err", err)
		}
		defer stopStatus()
	}
	start := time.Now()
	m, err := campaign.Run(spec)
	if err != nil {
		fatal("campaign failed", "err", err)
	}
	stageBusy := map[string]float64{}
	for _, e := range m.Entries {
		fmt.Printf("%-14s %-8s attempted=%-7d ok=%-7d failed=%-6d local=%-5d resumed-past=%-6d %v\n",
			e.Crawl, e.OS, e.Attempted, e.Successful, e.Failed, e.LocalRequests, e.AlreadyDone,
			e.Elapsed.Round(time.Millisecond))
		for stage, sec := range e.StageBusySeconds {
			stageBusy[stage] += sec
		}
	}
	if len(stageBusy) > 0 {
		fmt.Println("stage busy time across all crawls:")
		for _, name := range crawler.StageNames {
			if sec, ok := stageBusy[name]; ok {
				fmt.Printf("  %-10s %v\n", name, time.Duration(sec*float64(time.Second)).Round(time.Microsecond))
			}
		}
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
	fmt.Printf("campaign %q finished in %v; stores and manifest in %s\n",
		m.Name, time.Since(start).Round(time.Millisecond), *out)
}

func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}
