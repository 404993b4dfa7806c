package fleet

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/health"
	"github.com/knockandtalk/knockandtalk/internal/serve"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
	"github.com/knockandtalk/knockandtalk/internal/websim"
)

// Config shapes a fleet campaign.
type Config struct {
	// Name labels the campaign in its manifest.
	Name string
	// OutDir receives the lease journal, per-crawl WAL directories, and
	// — at completion — the canonical per-crawl stores and manifest.
	OutDir string
	// Crawls lists the campaigns to run; nil means all three.
	Crawls []groundtruth.CrawlID
	// Scale, Seed, RetainLogs, NetProfile as in crawler.Config —
	// identical across the fleet, pinned into every lease.
	Scale      float64
	Seed       uint64
	RetainLogs bool
	NetProfile string
	// LeaseTargets is the maximum number of targets per lease; 0 means
	// 64. Smaller leases reassign less work on worker death but cost
	// more control-plane round trips.
	LeaseTargets int
	// TTL is how long a worker may go between renewals before its lease
	// is declared dead and reassigned; 0 means 60s.
	TTL time.Duration
	// Resume replays the lease journal and per-crawl WALs in OutDir and
	// continues the campaign; without it, a non-empty OutDir is an
	// error, never silently absorbed.
	Resume bool
	// MaxUploadBytes bounds a shard upload — both the wire bytes and,
	// for gzip uploads, the decompressed stream; 0 means 256 MiB.
	MaxUploadBytes int64
	// Health, when non-nil, carries the fleet's per-leg progress; the
	// coordinator creates a private tracker otherwise, so /v1/fleet/status
	// always has rates and ETAs to report.
	Health *health.Tracker
	// Metrics, when non-nil, receives the fleet counters.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records the campaign's distributed trace:
	// one deterministic campaign root span plus a server-side span per
	// control-plane request (acquire grant, renew, complete), parented
	// under the worker span carried in the request's W3C traceparent
	// header. Workers writing their own trace files then share trace IDs
	// with this coordinator, and knocktrace -assemble joins the files
	// into one cross-process tree.
	Tracer *telemetry.Tracer
	// Logger, when non-nil, narrates lease transitions.
	Logger *slog.Logger
	// Now is the clock that decides lease expiry (and stamps health and
	// traces); tests inject a deterministic one.
	Now func() time.Time
}

// Coordinator owns the fleet control plane: the lease board, the
// journal, the campaign stores uploads merge into, and the HTTP surface
// workers talk to. It runs no goroutine of its own: lease expiry is
// computed from the clock at each access.
type Coordinator struct {
	cfg     Config
	mux     *http.ServeMux
	tracker *health.Tracker
	reg     *telemetry.Registry

	mu        sync.Mutex
	b         *board
	stores    map[groundtruth.CrawlID]*store.Store
	logs      map[groundtruth.CrawlID]*store.Log
	delivered map[string]bool // "crawl|os|url" — every merged visit
	dupes     int             // visits dropped by dedup, this process's lifetime
	journal   *journal
	doneOnce  sync.Once
	doneCh    chan struct{}

	mAcquires  *telemetry.Counter
	mExpiries  *telemetry.Counter
	mReassigns *telemetry.Counter
	mCompletes *telemetry.Counter
	mMerged    *telemetry.Counter
	mDupes     *telemetry.Counter
	mUploadB   *telemetry.Counter

	// campaignTrace/campaignRoot identify the campaign's distributed
	// trace; rpcSeq disambiguates repeated control-plane spans (renews,
	// re-acquires) within this process's lifetime.
	campaignTrace telemetry.TraceID
	campaignRoot  telemetry.SpanID
	rpcSeq        atomic.Uint64
}

func pageKey(crawl, os, url string) string   { return crawl + "|" + os + "|" + url }
func legName(crawl, os string) string        { return crawl + "|" + os }
func domainKey(crawl, os, dom string) string { return crawl + "|" + os + "|" + dom }

// New partitions the campaign, opens (or resumes) the journal and the
// per-crawl WAL-backed stores, and returns a coordinator ready to
// serve. The fleet starts paused in the sense that no worker holds
// anything: leases are handed out on demand.
func New(cfg Config) (*Coordinator, error) {
	if cfg.OutDir == "" {
		return nil, fmt.Errorf("fleet: OutDir is required")
	}
	if len(cfg.Crawls) == 0 {
		cfg.Crawls = []groundtruth.CrawlID{
			groundtruth.CrawlTop2020, groundtruth.CrawlTop2021, groundtruth.CrawlMalicious,
		}
	}
	if cfg.LeaseTargets <= 0 {
		cfg.LeaseTargets = 64
	}
	if cfg.TTL <= 0 {
		cfg.TTL = time.Minute
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 256 << 20
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:       cfg,
		tracker:   cfg.Health,
		reg:       cfg.Metrics,
		stores:    map[groundtruth.CrawlID]*store.Store{},
		logs:      map[groundtruth.CrawlID]*store.Log{},
		delivered: map[string]bool{},
		doneCh:    make(chan struct{}),
	}
	if c.tracker == nil {
		c.tracker = health.New(health.Options{Now: cfg.Now})
	}
	if c.reg == nil {
		c.reg = telemetry.NewRegistry()
	}
	c.mAcquires = c.reg.Counter("fleet_lease_acquires_total")
	c.mExpiries = c.reg.Counter("fleet_lease_expiries_total")
	c.mReassigns = c.reg.Counter("fleet_lease_reassignments_total")
	c.mCompletes = c.reg.Counter("fleet_lease_completes_total")
	c.mMerged = c.reg.Counter("fleet_merged_visits_total")
	c.mDupes = c.reg.Counter("fleet_duplicate_visits_total")
	c.mUploadB = c.reg.Counter("fleet_upload_bytes_total")

	leases, err := partition(cfg.Crawls, cfg.Scale, cfg.Seed, cfg.RetainLogs, cfg.NetProfile, cfg.LeaseTargets, cfg.TTL.Seconds())
	if err != nil {
		return nil, err
	}
	// The campaign trace is derived from (seed, crawl list) alone, so a
	// resumed coordinator — and an identically-seeded re-run — produces
	// the identical trace ID, and every lease's traceparent with it.
	traceParts := []string{"fleet"}
	for _, cr := range cfg.Crawls {
		traceParts = append(traceParts, string(cr))
	}
	c.campaignTrace = telemetry.DeriveTraceID(cfg.Seed, traceParts...)
	c.campaignRoot = telemetry.DeriveSpanID(c.campaignTrace, "campaign")
	for _, l := range leases {
		// Each lease carries its own span under the campaign root; the
		// worker that crawls it parents its lease trace here, so the
		// assembled tree reads campaign → lease → worker → RPCs.
		l.Traceparent = telemetry.SpanContext{
			TraceID: c.campaignTrace,
			SpanID:  telemetry.DeriveSpanID(c.campaignTrace, "lease/"+l.ID),
		}.Traceparent()
		c.reg.Counter("fleet_leases_total", "crawl", l.Crawl, "os", l.OS).Inc()
	}
	c.b = newBoard(cfg.Crawls, leases, cfg.TTL)
	for _, leg := range c.b.legs {
		leg.health = c.tracker.StartCrawl(string(leg.key.crawl), leg.key.os.String(), leg.total, 0)
	}

	// Campaign stores: one WAL-backed store per crawl, exactly the
	// durable-campaign layout, so the merge is crash-resumable at record
	// granularity.
	for _, crawl := range cfg.Crawls {
		walDir := filepath.Join(cfg.OutDir, string(crawl)+".wal")
		st, lg, rec, err := store.Open(walDir, store.LogOptions{})
		if err != nil {
			c.closeStores()
			return nil, fmt.Errorf("fleet: %s: %w", crawl, err)
		}
		if n := rec.SegmentRecords + rec.WALRecords; n > 0 && !cfg.Resume {
			lg.Close()
			c.closeStores()
			return nil, fmt.Errorf("fleet: %s holds %d recovered records; pass Resume or clear it", walDir, n)
		}
		c.stores[crawl] = st
		c.logs[crawl] = lg
	}

	// Journal: replay lease history through the board's own transition
	// function, verify the campaign header pins the same partition, and
	// append our own header when fresh.
	header := journalEntry{
		Type: "campaign", Name: cfg.Name, Scale: cfg.Scale, Seed: cfg.Seed,
		LeaseTargets: cfg.LeaseTargets, RetainLogs: cfg.RetainLogs, NetProfile: cfg.NetProfile,
	}
	for _, cr := range cfg.Crawls {
		header.Crawls = append(header.Crawls, string(cr))
	}
	var headerSeen bool
	var headerErr error
	jr, records, err := openJournal(cfg.OutDir, func(e journalEntry) {
		if e.Type != "campaign" {
			c.b.apply(e)
			return
		}
		headerSeen = true
		if e.Scale != header.Scale || e.Seed != header.Seed || e.LeaseTargets != header.LeaseTargets ||
			e.RetainLogs != header.RetainLogs || e.NetProfile != header.NetProfile || !slices.Equal(e.Crawls, header.Crawls) {
			headerErr = fmt.Errorf("fleet: journal in %s describes a different campaign (scale=%v seed=%d lease_targets=%d crawls=%v)", cfg.OutDir, e.Scale, e.Seed, e.LeaseTargets, e.Crawls)
		}
	})
	if err != nil {
		c.closeStores()
		return nil, err
	}
	c.journal = jr
	if headerErr != nil {
		c.Close()
		return nil, headerErr
	}
	if records > 0 && !cfg.Resume {
		c.Close()
		return nil, fmt.Errorf("fleet: %s holds %d journaled lease transitions; pass Resume or clear it", filepath.Join(cfg.OutDir, journalName), records)
	}
	if !headerSeen {
		if err := jr.append(header); err != nil {
			c.Close()
			return nil, err
		}
	}

	if err := c.recover(); err != nil {
		c.Close()
		return nil, err
	}

	c.mux = http.NewServeMux()
	c.mux.HandleFunc("/v1/lease/acquire", c.handleAcquire)
	c.mux.HandleFunc("/v1/lease/renew", c.handleRenew)
	c.mux.HandleFunc("/v1/lease/complete", c.handleComplete)
	c.mux.HandleFunc("/v1/fleet/status", c.handleStatus)
	health.Mount(c.mux, c.tracker, c.reg)
	c.tracker.SetReady(true)

	// The campaign root anchors the cross-process tree: every
	// control-plane span and worker lease span is (transitively) its
	// child. Emitted once per coordinator life; a resumed coordinator
	// re-emits the identical record and assembly dedupes on span ID.
	if cfg.Tracer != nil {
		name := cfg.Name
		if name == "" {
			name = "campaign"
		}
		cfg.Tracer.Emit(&telemetry.VisitRecord{
			Crawl:   "fleet",
			Domain:  name,
			StartUS: cfg.Now().UnixMicro(),
			Outcome: "ok",
			TraceID: c.campaignTrace.String(),
			SpanID:  c.campaignRoot.String(),
			Spans:   []telemetry.Span{{Name: "campaign", Items: len(c.b.leases)}},
		})
	}
	return c, nil
}

// recover reconstructs the delivered set from the recovered stores and
// reconciles the replayed board with it through the live transitions:
// leases whose holders predate this process expire (their replayed
// deadline is zero), and leases whose full range already landed —
// merged and checkpointed, but crashed before the completion record —
// complete as "(recovered)" instead of being re-crawled.
func (c *Coordinator) recover() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	deliveredDomains := map[string]bool{}
	for _, st := range c.stores {
		st.ForEachPage(func(p *store.PageRecord) {
			c.delivered[pageKey(p.Crawl, p.OS, p.URL)] = true
			deliveredDomains[domainKey(p.Crawl, p.OS, p.Domain)] = true
			if leg := c.b.legByName[legName(p.Crawl, p.OS)]; leg != nil {
				leg.merged++
			}
		})
	}
	c.b.expire(c.cfg.Now(), c.commit)
	for _, ls := range c.b.leases {
		n := ls.Targets()
		if ls.state != leaseComplete {
			doms, err := leaseDomains(ls.Lease)
			if err != nil {
				return err
			}
			n = 0
			for dom := range doms {
				if deliveredDomains[domainKey(ls.Crawl, ls.OS, dom)] {
					n++
				}
			}
		}
		ls.progress(n, ls.leg.health.ResumeSkip)
		if n == ls.Targets() {
			// Refused, and not journaled, for a lease already complete.
			c.commit(journalEntry{Type: "complete", Lease: ls.ID, Worker: "(recovered)", Attempted: n})
		}
	}
	c.settle()
	return nil
}

// leaseDomains is the set of target domains lease l covers: an upload
// may carry records for these alone, and recovery counts the range
// delivered once all of them are merged.
func leaseDomains(l *Lease) (map[string]bool, error) {
	doms := make(map[string]bool, l.Targets())
	for i := l.Lo; i < l.Hi; i++ {
		dom, err := websim.TargetDomain(groundtruth.CrawlID(l.Crawl), l.Scale, i)
		if err != nil {
			return nil, err
		}
		doms[dom] = true
	}
	return doms, nil
}

// commit is the one live transition path: journal the entry, apply it
// to the board, then run the live-only effects — metrics, log, trace
// span and health. An entry the board refuses (see board.legal) is
// neither journaled nor applied, and commit reports false. A journal
// append failure is logged once; the board stays authoritative in
// memory and Close returns the sticky error. Caller holds c.mu.
func (c *Coordinator) commit(e journalEntry) bool {
	if c.b.legal(e) == nil {
		return false
	}
	first := c.journal.err == nil
	if err := c.journal.append(e); err != nil && first {
		c.cfg.Logger.Error("lease journal failed; transitions continue in memory only", "err", err)
	}
	ls := c.b.apply(e)
	switch e.Type {
	case "acquire":
		c.mAcquires.Inc()
		if ls.acquires > 1 {
			c.mReassigns.Inc()
		}
		c.cfg.Logger.Info("lease acquired", "lease", ls.ID, "worker", e.Worker, "targets", ls.Targets(), "acquires", ls.acquires)
		c.traceGrant(ls, c.cfg.Now())
	case "expire":
		c.mExpiries.Inc()
		c.cfg.Logger.Info("lease expired", "lease", ls.ID, "worker", e.Worker)
	case "complete":
		c.mCompletes.Inc()
		// Health top-off: the lease contributes exactly its target count
		// to the leg's progress, however heartbeats interleaved.
		ls.progress(ls.Targets(), func() { ls.leg.health.VisitDone(-1, 0, true) })
		c.cfg.Logger.Info("lease complete", "lease", ls.ID, "worker", e.Worker, "duplicates", e.Duplicates)
		c.settle()
	}
	return true
}

// settle finishes the health leg of every fully complete leg and
// closes the done channel once every lease is complete.
func (c *Coordinator) settle() {
	for _, leg := range c.b.legs {
		if leg.complete == len(leg.leases) {
			leg.health.Finish()
		}
	}
	if c.b.done() {
		c.doneOnce.Do(func() { close(c.doneCh) })
	}
}

// lock takes the coordinator lock and expires every lease overdue at
// the returned time, so every entry point sees the board as the clock
// has it. Callers unlock c.mu.
func (c *Coordinator) lock() time.Time {
	c.mu.Lock()
	now := c.cfg.Now()
	c.b.expire(now, c.commit)
	return now
}

// Handler returns the coordinator's HTTP surface: the lease control
// plane plus the standard operations plane (/status, /healthz,
// /metrics).
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Done is closed when every lease has completed and merged.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// traceRPC records one server-side control-plane span into the
// coordinator's trace sink: op ("acquire", "renew", "complete") over
// lease ls, started at start. The span parents under the caller's W3C
// traceparent when the request carried one; a stripped or absent
// header degrades to the lease's own grant span as parent, keeping the
// record inside the campaign trace rather than orphaning it. items is
// the op's payload size (targets granted, visits reported, pages
// merged). Safe without a Tracer (no-op).
func (c *Coordinator) traceRPC(op string, ls *leaseState, h http.Header, start time.Time, outcome string, items int) {
	if c.cfg.Tracer == nil {
		return
	}
	trace, parent := c.campaignTrace, telemetry.SpanID{}
	if sc, ok := telemetry.ExtractTraceContext(h); ok {
		trace, parent = sc.TraceID, sc.SpanID
	} else {
		parent = telemetry.DeriveSpanID(trace, "lease/"+ls.ID)
	}
	dur := c.cfg.Now().Sub(start)
	if dur < 0 {
		dur = 0
	}
	span := telemetry.DeriveSpanID(trace, fmt.Sprintf("%s/%s#%d", op, ls.ID, c.rpcSeq.Add(1)))
	c.cfg.Tracer.Emit(&telemetry.VisitRecord{
		Crawl:    ls.Crawl,
		OS:       ls.OS,
		Domain:   ls.ID,
		StartUS:  start.UnixMicro(),
		DurNS:    dur.Nanoseconds(),
		Outcome:  outcome,
		TraceID:  trace.String(),
		SpanID:   span.String(),
		ParentID: parent.String(),
		Spans:    []telemetry.Span{{Name: op, DurNS: dur.Nanoseconds(), Items: items}},
	})
}

// traceGrant records the lease-grant span itself — the span whose ID
// the lease's traceparent names — so worker lease traces always have a
// recorded parent. A re-grant (reassignment after expiry) gets its own
// span under the original grant, keeping every hand-off visible in the
// assembled tree.
func (c *Coordinator) traceGrant(ls *leaseState, start time.Time) {
	if c.cfg.Tracer == nil {
		return
	}
	span := telemetry.DeriveSpanID(c.campaignTrace, "lease/"+ls.ID)
	parent := c.campaignRoot
	if ls.acquires > 1 {
		parent = span
		span = telemetry.DeriveSpanID(c.campaignTrace, fmt.Sprintf("lease/%s#%d", ls.ID, ls.acquires))
	}
	c.cfg.Tracer.Emit(&telemetry.VisitRecord{
		Crawl:    ls.Crawl,
		OS:       ls.OS,
		Domain:   ls.ID,
		StartUS:  start.UnixMicro(),
		Outcome:  "ok",
		TraceID:  c.campaignTrace.String(),
		SpanID:   span.String(),
		ParentID: parent.String(),
		Spans:    []telemetry.Span{{Name: "acquire", Items: ls.Targets()}},
	})
}

// AcquireResponse is the wire form of POST /v1/lease/acquire.
type AcquireResponse struct {
	// Lease is the granted work unit, nil when none is available.
	Lease *Lease `json:"lease,omitempty"`
	// Done reports that the campaign has no work left at all — every
	// lease is complete and the worker should exit.
	Done bool `json:"done,omitempty"`
	// RetryMS asks the worker to poll again later: everything is leased
	// out right now, but reassignment may free work.
	RetryMS int `json:"retry_ms,omitempty"`
}

func (c *Coordinator) handleAcquire(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	worker := r.URL.Query().Get("worker")
	if worker == "" {
		httpError(w, http.StatusBadRequest, "worker query parameter is required")
		return
	}
	now := c.lock()
	defer c.mu.Unlock()
	var resp AcquireResponse
	ls, done := c.b.acquire(worker, now, c.commit)
	switch {
	case ls != nil:
		resp.Lease = ls.Lease
	case done:
		resp.Done = true
	default:
		resp.RetryMS = 500
	}
	writeJSON(w, resp)
}

// RenewResponse is the wire form of POST /v1/lease/renew.
type RenewResponse struct {
	// TTLSeconds is the renewed deadline horizon.
	TTLSeconds float64 `json:"ttl_seconds"`
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	q := r.URL.Query()
	leaseID, worker := q.Get("lease"), q.Get("worker")
	visited, _ := strconv.Atoi(q.Get("visited"))
	now := c.lock()
	defer c.mu.Unlock()
	c.b.touch(worker, now)
	ls := c.b.byID[leaseID]
	if ls == nil {
		httpError(w, http.StatusNotFound, "unknown lease "+strconv.Quote(leaseID))
		return
	}
	if !c.b.renew(ls, worker, visited, now) {
		// The lease expired (and was possibly reassigned) or already
		// completed. The worker may keep crawling and upload anyway —
		// dedup makes the double delivery harmless — but it must know
		// its renewal bought nothing.
		httpError(w, http.StatusConflict, fmt.Sprintf("lease %s is %s", leaseID, ls.state))
		return
	}
	// Live progress: heartbeats advance the leg's throughput estimate
	// before any upload lands.
	ls.progress(visited, func() { ls.leg.health.VisitDone(-1, 0, true) })
	c.traceRPC("renew", ls, r.Header, now, "ok", visited)
	writeJSON(w, RenewResponse{TTLSeconds: c.cfg.TTL.Seconds()})
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%s}\n", strconv.Quote(msg))
}

// CompleteResponse is the wire form of POST /v1/lease/complete.
type CompleteResponse struct {
	// Merged is the number of fresh page visits committed; Duplicates is
	// the number dropped because an earlier delivery already covered
	// them (reassignment double-delivery).
	Merged     int `json:"merged"`
	Duplicates int `json:"duplicates"`
	// FleetDone reports that this completion finished the campaign.
	FleetDone bool `json:"fleet_done,omitempty"`
}

// handleComplete ingests a worker's shard store and completes its
// lease. The upload is the worker's full lease store in canonical Save
// form (optionally gzip-compressed); every record must lie inside the
// lease's (crawl, OS) leg and [Lo, Hi) domain range, or the upload is
// refused whole. The merge is all-or-nothing and idempotent: pages
// already delivered — by a previous holder of a reassigned lease, or by
// this very upload retried — are dropped, along with their locals and
// retained captures, keyed on the visited URL. Ordering is merge → WAL
// checkpoint → journal completion, so a crash at any point leaves
// either a reassignable lease (dedup absorbs the re-delivery) or a
// durably complete one.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	uploadStart := time.Now()
	q := r.URL.Query()
	leaseID, worker := q.Get("lease"), q.Get("worker")
	body, err := serve.RequestBody(w, r, c.cfg.MaxUploadBytes)
	if err != nil {
		if errors.Is(err, serve.ErrUnsupportedEncoding) {
			httpError(w, http.StatusUnsupportedMediaType, err.Error())
			return
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	scratch := store.New()
	if err := scratch.Load(body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) || errors.Is(err, serve.ErrBodyTooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, err.Error())
			return
		}
		httpError(w, http.StatusBadRequest, "parsing shard store: "+err.Error())
		return
	}

	atoi := func(k string) int { n, _ := strconv.Atoi(q.Get(k)); return n }
	elapsedMS, _ := strconv.ParseFloat(q.Get("elapsed_ms"), 64)
	// The worker reports time burned on earlier upload attempts; this
	// attempt's receive-and-parse time is measured here, so a
	// first-attempt success still records a real duration.
	uploadMS, _ := strconv.ParseFloat(q.Get("upload_ms"), 64)
	uploadMS += float64(time.Since(uploadStart).Nanoseconds()) / 1e6

	now := c.lock()
	defer c.mu.Unlock()
	c.b.touch(worker, now)
	ls := c.b.byID[leaseID]
	if ls == nil {
		httpError(w, http.StatusNotFound, "unknown lease "+strconv.Quote(leaseID))
		return
	}
	doms, err := leaseDomains(ls.Lease)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}

	// Partition the upload into fresh and duplicate visits. Locals and
	// netlogs ride with their page: a dropped page drops its domain's
	// dependent records too (every record of a visit shares the domain).
	var pages []store.PageRecord
	var locals []store.LocalRequest
	var netlogs []store.NetLogRecord
	drop := map[string]bool{}
	dupes := 0
	stray := ""
	inLease := func(crawl, os, dom string) bool {
		if crawl == ls.Crawl && os == ls.OS && doms[dom] {
			return true
		}
		if stray == "" {
			stray = crawl + "/" + os + "/" + dom
		}
		return false
	}
	scratch.DeltaSince(store.Mark{}, func(p *store.PageRecord) {
		if !inLease(p.Crawl, p.OS, p.Domain) {
			return
		}
		if c.delivered[pageKey(p.Crawl, p.OS, p.URL)] {
			drop[p.Domain] = true
			dupes++
			return
		}
		pages = append(pages, *p)
	}, func(l *store.LocalRequest) {
		if inLease(l.Crawl, l.OS, l.Domain) && !drop[l.Domain] {
			locals = append(locals, *l)
		}
	}, func(n *store.NetLogRecord) {
		if inLease(n.Crawl, n.OS, n.Domain) && !drop[n.Domain] {
			netlogs = append(netlogs, *n)
		}
	})
	if stray != "" {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("upload holds records for %s, outside lease %s", strconv.Quote(stray), leaseID))
		return
	}

	// Commit the fresh records, then checkpoint the WAL before
	// journaling completion: a journaled complete must imply a durable
	// merge.
	if len(pages)+len(locals)+len(netlogs) > 0 {
		crawl := groundtruth.CrawlID(ls.Crawl)
		c.stores[crawl].AddRecords(pages, locals, netlogs)
		if err := c.logs[crawl].Checkpoint(); err != nil {
			// The merge is committed in memory but not durable; without
			// the completion record the lease stays open, the worker
			// retries, and dedup absorbs the replay.
			httpError(w, http.StatusInternalServerError, "checkpointing merge: "+err.Error())
			return
		}
	}
	for _, p := range pages {
		c.delivered[pageKey(p.Crawl, p.OS, p.URL)] = true
	}
	ls.leg.merged += len(pages)
	c.mMerged.Add(uint64(len(pages)))
	c.mDupes.Add(uint64(dupes))
	c.dupes += dupes
	if r.ContentLength > 0 {
		c.mUploadB.Add(uint64(r.ContentLength))
	}

	resp := CompleteResponse{Merged: len(pages), Duplicates: dupes}
	c.traceRPC("complete", ls, r.Header, now, "ok", len(pages))
	if !c.commit(journalEntry{
		Type: "complete", Lease: leaseID, Worker: worker,
		Attempted: atoi("attempted"), Successful: atoi("successful"), Failed: atoi("failed"),
		Locals: atoi("locals"), Retention: atoi("retention_errors"), Duplicates: dupes,
		ElapsedMS: elapsedMS, UploadMS: uploadMS,
	}) {
		// Late delivery from a previous holder: the merge above already
		// absorbed anything fresh (normally nothing); the lease record
		// stands.
		c.cfg.Logger.Info("late delivery", "lease", leaseID, "worker", worker, "duplicates", dupes)
	}
	select {
	case <-c.doneCh:
		resp.FleetDone = true
	default:
	}
	writeJSON(w, resp)
}

// Close releases the journal and WAL logs, returning the journal's
// sticky error if an append ever failed. It does not write campaign
// outputs; see WriteOutputs.
func (c *Coordinator) Close() error {
	var err error
	if c.journal != nil {
		err = c.journal.close()
		c.journal = nil
	}
	if cerr := c.closeStores(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

func (c *Coordinator) closeStores() error {
	var err error
	for crawl, lg := range c.logs {
		if cerr := lg.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("fleet: %s wal: %w", crawl, cerr)
		}
		delete(c.logs, crawl)
	}
	return err
}
