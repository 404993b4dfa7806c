package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/crawler"
	"github.com/knockandtalk/knockandtalk/internal/goldencampaign"
	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/websim"
)

// goldenConfig is the deterministic golden campaign as a fleet: same
// scale, seed, and retention as every other golden artifact, so the
// merged stores must hash identically to testdata/golden/stores.sha256.
func goldenConfig(t testing.TB, dir string) Config {
	t.Helper()
	return Config{
		Name:   "fleet-golden",
		OutDir: dir,
		Crawls: goldencampaign.Crawls,
		Scale:  goldencampaign.Scale,
		Seed:   goldencampaign.Seed, RetainLogs: true,
		LeaseTargets: 64,
		TTL:          time.Minute,
	}
}

// assertGolden verifies the coordinator's written stores byte-match the
// single-process campaign.
func assertGolden(t *testing.T, c *Coordinator, dir string) {
	t.Helper()
	if _, err := c.WriteOutputs(); err != nil {
		t.Fatalf("WriteOutputs: %v", err)
	}
	for _, crawl := range goldencampaign.Crawls {
		want, err := goldencampaign.Encoded(crawl)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, string(crawl)+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: merged store differs from single-process golden (%d vs %d bytes, sha256 %s vs %s)",
				crawl, len(got), len(want), shortHash(got), shortHash(want))
		}
	}
}

func shortHash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])[:12]
}

// TestPartitionDeterministic pins that the partition depends only on
// its parameters: two coordinators over the same campaign must hand out
// identical lease tables, or resume would corrupt.
func TestPartitionDeterministic(t *testing.T) {
	a, err := partition(goldencampaign.Crawls, 0.02, 7, true, "", 50, 60)
	if err != nil {
		t.Fatal(err)
	}
	b, err := partition(goldencampaign.Crawls, 0.02, 7, true, "", 50, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("partitions sized %d and %d", len(a), len(b))
	}
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatalf("lease %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// 2021 has no Mac leg.
	for _, l := range a {
		if l.Crawl == string(groundtruth.CrawlTop2021) && l.OS == "Mac" {
			t.Fatalf("2021 crawl partitioned a Mac leg: %+v", l)
		}
	}
	// Ranges tile each leg exactly.
	covered := map[string]int{}
	for _, l := range a {
		covered[l.Crawl+"|"+l.OS] += l.Targets()
		if l.Targets() <= 0 || l.Targets() > 50 {
			t.Fatalf("lease %s covers %d targets", l.ID, l.Targets())
		}
		if l.FirstDomain == "" || l.LastDomain == "" {
			t.Fatalf("lease %s missing boundary domains", l.ID)
		}
	}
	for leg, n := range covered {
		if n == 0 {
			t.Fatalf("leg %s covered no targets", leg)
		}
	}
}

// TestFleetGoldenParity runs the full distributed campaign — a
// coordinator and two concurrent in-process workers — and requires the
// merged, coordinator-written stores to be byte-identical to the
// single-process golden campaign.
func TestFleetGoldenParity(t *testing.T) {
	dir := t.TempDir()
	c, err := New(goldenConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	sums := make([]*WorkerSummary, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i], errs[i] = RunWorker(context.Background(), WorkerConfig{
				Coordinator: ts.URL,
				Name:        []string{"alpha", "beta"}[i],
				Workers:     2,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("workers exited but the fleet is not done")
	}
	if sums[0].Leases+sums[1].Leases == 0 {
		t.Fatal("no leases completed")
	}
	assertGolden(t, c, dir)

	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fleet == nil {
		t.Fatal("manifest has no fleet section")
	}
	if len(m.Fleet.Workers) == 0 {
		t.Fatal("fleet section names no workers")
	}
	for _, w := range m.Fleet.Workers {
		if w != "alpha" && w != "beta" {
			t.Fatalf("unexpected worker %q in manifest", w)
		}
	}
	total := 0
	for _, lr := range m.Fleet.Leases {
		if lr.Worker == "" {
			t.Fatalf("lease %s has no completing worker", lr.ID)
		}
		total += lr.Targets
	}
	var attempted int
	for _, e := range m.Entries {
		attempted += e.Attempted
	}
	if attempted != total {
		t.Fatalf("manifest entries attempted %d visits, leases cover %d", attempted, total)
	}
	fs := c.Status()
	if !fs.Done || fs.Leases.Complete != fs.Leases.Total {
		t.Fatalf("fleet status not done: %+v", fs.Leases)
	}
	if fs.MergedVisits != total {
		t.Fatalf("status reports %d merged visits, leases cover %d", fs.MergedVisits, total)
	}
}

// TestFleetDoubleDelivery pins the dedup contract: delivering the same
// shard twice (the slow-but-alive previous holder of a reassigned
// lease) merges nothing the second time and leaves the store golden.
func TestFleetDoubleDelivery(t *testing.T) {
	dir := t.TempDir()
	cfg := goldenConfig(t, dir)
	clock := newTestClock()
	cfg.Now = clock.Now
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	ctx := context.Background()
	slow := &Client{Base: ts.URL, Worker: "slow"}
	lease, done, _, err := slow.Acquire(ctx)
	if err != nil || done || lease == nil {
		t.Fatalf("acquire: lease=%v done=%v err=%v", lease, done, err)
	}

	// Let the lease expire, then have a healthy worker finish the whole
	// campaign — including the reassigned range.
	clock.Advance(cfg.TTL + time.Second)
	if err := slow.Renew(ctx, lease.ID, 1); err != ErrLeaseLost {
		t.Fatalf("renew after expiry: err=%v, want ErrLeaseLost", err)
	}
	if _, err := RunWorker(ctx, WorkerConfig{Coordinator: ts.URL, Name: "healthy", Workers: 2}); err != nil {
		t.Fatal(err)
	}

	// The slow worker now finishes its lost lease and uploads anyway.
	shard := crawlLease(t, lease)
	resp, err := slow.Complete(ctx, lease.ID, CompleteStats{Attempted: lease.Targets()}, shard)
	if err != nil {
		t.Fatalf("late delivery rejected: %v", err)
	}
	if resp.Merged != 0 {
		t.Fatalf("late delivery merged %d fresh visits, want 0", resp.Merged)
	}
	if resp.Duplicates != lease.Targets() {
		t.Fatalf("late delivery deduped %d visits, want %d", resp.Duplicates, lease.Targets())
	}

	// And a straight re-upload of an already-complete lease's shard by
	// its own completer is equally absorbed.
	resp2, err := slow.Complete(ctx, lease.ID, CompleteStats{Attempted: lease.Targets()}, shard)
	if err != nil || resp2.Merged != 0 {
		t.Fatalf("re-upload: merged=%d err=%v", resp2.Merged, err)
	}

	assertGolden(t, c, dir)
	fs := c.Status()
	if fs.Leases.Expiries == 0 {
		t.Fatal("status records no expiries after a TTL death")
	}
	if fs.DuplicateVisits < lease.Targets() {
		t.Fatalf("status records %d duplicate visits, want at least %d", fs.DuplicateVisits, lease.Targets())
	}
}

// TestCompleteRejectsForeignShard pins that an upload is checked
// against its lease: one lease's shard posted as another's completion
// is refused whole — nothing merged, the lease still open — and the
// same bytes still merge under their own lease.
func TestCompleteRejectsForeignShard(t *testing.T) {
	dir := t.TempDir()
	c, err := New(goldenConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	ctx := context.Background()
	a := &Client{Base: ts.URL, Worker: "a"}
	b := &Client{Base: ts.URL, Worker: "b"}
	first, _, _, err := a.Acquire(ctx)
	if err != nil || first == nil {
		t.Fatalf("acquire: %v %v", first, err)
	}
	second, _, _, err := b.Acquire(ctx)
	if err != nil || second == nil {
		t.Fatalf("second acquire: %v %v", second, err)
	}
	shard := crawlRange(t, first)
	if _, err := b.Complete(ctx, second.ID, CompleteStats{Attempted: second.Targets()}, shard); err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("%s's shard completing %s: err=%v, want a 400 refusal", first.ID, second.ID, err)
	}
	if fs := c.Status(); fs.Leases.Complete != 0 || fs.MergedVisits != 0 {
		t.Fatalf("refused upload changed the board: %d complete, %d merged", fs.Leases.Complete, fs.MergedVisits)
	}
	resp, err := a.Complete(ctx, first.ID, CompleteStats{Attempted: first.Targets()}, shard)
	if err != nil || resp.Merged != first.Targets() {
		t.Fatalf("own lease: resp=%+v err=%v, want %d merged", resp, err, first.Targets())
	}
}

// testClock is an injected Config.Now that moves only when the test
// advances it, so lease expiry happens exactly when the test says;
// safe to read from the coordinator's handler goroutines.
type testClock struct{ ns atomic.Int64 }

func newTestClock() *testClock {
	c := &testClock{}
	c.ns.Store(time.Date(2020, 7, 24, 0, 0, 0, 0, time.UTC).UnixNano())
	return c
}

func (c *testClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *testClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// crawlLease produces a lease's shard store bytes exactly as a worker
// would, via an isolated one-lease crawl.
func crawlLease(t *testing.T, lease *Lease) []byte {
	t.Helper()
	dir := t.TempDir()
	c, err := New(Config{
		Name: "shard-helper", OutDir: dir,
		Crawls: []groundtruth.CrawlID{groundtruth.CrawlID(lease.Crawl)},
		Scale:  lease.Scale, Seed: lease.Seed, RetainLogs: lease.RetainLogs,
		LeaseTargets: lease.Targets(), TTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	ctx := context.Background()
	client := &Client{Base: ts.URL, Worker: "helper"}
	for {
		got, done, retry, err := client.Acquire(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if done || got == nil {
			t.Fatalf("helper fleet stopped granting (done=%v retry=%v) before producing lease %s", done, retry, lease.ID)
		}
		shard := crawlRange(t, got)
		if got.Crawl == lease.Crawl && got.OS == lease.OS && got.Lo == lease.Lo && got.Hi == lease.Hi {
			return shard
		}
		if _, err := client.Complete(ctx, got.ID, CompleteStats{Attempted: got.Targets()}, shard); err != nil {
			t.Fatal(err)
		}
	}
}

// crawlRange crawls one lease's exact target range into a fresh store
// and returns its canonical bytes — what a worker uploads.
func crawlRange(t *testing.T, lease *Lease) []byte {
	t.Helper()
	osv, err := hostenv.ParseOS(lease.OS)
	if err != nil {
		t.Fatal(err)
	}
	world, err := websim.Build(groundtruth.CrawlID(lease.Crawl), osv, lease.Scale, lease.Seed)
	if err != nil {
		t.Fatal(err)
	}
	world.Targets = world.Targets[lease.Lo:lease.Hi]
	st := store.New()
	if _, err := crawler.RunWorld(crawler.Config{
		Crawl: groundtruth.CrawlID(lease.Crawl), OS: osv,
		Scale: lease.Scale, Seed: lease.Seed, Workers: 2,
		RetainLogs: lease.RetainLogs,
	}, world, st); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
