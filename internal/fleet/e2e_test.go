package fleet

import (
	"bufio"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCoordinatorResume pins the journal's crash-replay contract: a
// coordinator killed mid-campaign resumes with completed leases still
// complete, in-flight leases reverted to the pool, and the finished
// campaign byte-identical to the single-process golden.
func TestCoordinatorResume(t *testing.T) {
	dir := t.TempDir()
	cfg := goldenConfig(t, dir)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	ctx := context.Background()

	// Complete one lease, leave a second one leased, then "crash".
	early := &Client{Base: ts.URL, Worker: "early"}
	first, done, _, err := early.Acquire(ctx)
	if err != nil || done || first == nil {
		t.Fatalf("acquire: %v %v %v", first, done, err)
	}
	if _, err := early.Complete(ctx, first.ID, CompleteStats{Attempted: first.Targets()}, crawlRange(t, first)); err != nil {
		t.Fatal(err)
	}
	second, _, _, err := early.Acquire(ctx)
	if err != nil || second == nil {
		t.Fatalf("second acquire: %v %v", second, err)
	}
	ts.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Without Resume, the journal must refuse the directory.
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "Resume") {
		t.Fatalf("reopening without Resume: err=%v, want a Resume refusal", err)
	}

	cfg.Resume = true
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	fs := c2.Status()
	if fs.Leases.Complete != 1 {
		t.Fatalf("resumed fleet has %d complete leases, want 1", fs.Leases.Complete)
	}
	if fs.Leases.Leased != 0 {
		t.Fatalf("resumed fleet still trusts %d leased leases from the dead process", fs.Leases.Leased)
	}
	if fs.Leases.Expiries == 0 {
		t.Fatal("the in-flight lease was not reverted on restart")
	}
	if fs.MergedVisits != first.Targets() {
		t.Fatalf("resumed fleet reports %d merged visits, want %d", fs.MergedVisits, first.Targets())
	}

	ts2 := httptest.NewServer(c2.Handler())
	defer ts2.Close()
	if _, err := RunWorker(ctx, WorkerConfig{Coordinator: ts2.URL, Name: "finisher", Workers: 2}); err != nil {
		t.Fatal(err)
	}
	assertGolden(t, c2, dir)

	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var firstRec *LeaseRecord
	for i := range m.Fleet.Leases {
		if m.Fleet.Leases[i].ID == first.ID {
			firstRec = &m.Fleet.Leases[i]
		}
	}
	if firstRec == nil || firstRec.Worker != "early" {
		t.Fatalf("manifest lost the pre-crash completion: %+v", firstRec)
	}
}

// TestCoordinatorRecoversMergedLeases pins the merge → checkpoint →
// journal crash window from the other side: when the journal is lost
// entirely but the per-crawl WALs hold merged records, a resumed
// coordinator recognizes fully-delivered ranges as complete instead of
// re-crawling them.
func TestCoordinatorRecoversMergedLeases(t *testing.T) {
	dir := t.TempDir()
	cfg := goldenConfig(t, dir)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	ctx := context.Background()
	cl := &Client{Base: ts.URL, Worker: "w"}
	lease, _, _, err := cl.Acquire(ctx)
	if err != nil || lease == nil {
		t.Fatalf("acquire: %v %v", lease, err)
	}
	if _, err := cl.Complete(ctx, lease.ID, CompleteStats{Attempted: lease.Targets()}, crawlRange(t, lease)); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, journalName)); err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	fs := c2.Status()
	if fs.Leases.Complete != 1 {
		t.Fatalf("journal-less resume found %d complete leases, want the merged range recognized", fs.Leases.Complete)
	}
	m := map[string]bool{}
	for _, lr := range func() []LeaseRecord {
		man, err := c2.WriteOutputs()
		if err != nil {
			t.Fatal(err)
		}
		return man.Fleet.Leases
	}() {
		if lr.Worker != "" {
			m[lr.ID] = true
			if lr.Worker != "(recovered)" {
				t.Fatalf("lease %s completed by %q, want the recovery marker", lr.ID, lr.Worker)
			}
		}
	}
	if !m[lease.ID] {
		t.Fatalf("merged lease %s was not recognized as complete", lease.ID)
	}
}

// TestWorkerKillReassignment is the fleet's crash drill: two workers, a
// real OS process SIGKILLed mid-lease, the lease reassigned after its
// TTL, and the finished campaign still byte-identical to the
// single-process golden. The child process acquires a lease, heartbeats
// once, reports it, and hangs until killed — deterministic mid-lease
// death without racing a fast crawl.
func TestWorkerKillReassignment(t *testing.T) {
	if base := os.Getenv("KNOCKFLEET_CHILD_COORD"); base != "" {
		fleetKillChild(base)
		return // unreachable: the child hangs until SIGKILL
	}
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

	cmd := exec.Command(os.Args[0], "-test.run=^TestWorkerKillReassignment$", "-test.v")
	cmd.Env = append(os.Environ(), "KNOCKFLEET_CHILD_COORD="+ts.URL)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The child prints "holding <leaseID>" once its lease is acquired
	// and renewed; then it hangs.
	var victimLease string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "holding "); ok {
			victimLease = rest
			break
		}
	}
	if victimLease == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("child never reported a held lease")
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup, no upload
		t.Fatal(err)
	}
	cmd.Wait()

	// Once its TTL passes unrenewed, the dead worker's lease expires and
	// returns to the pool.
	clock.Advance(cfg.TTL + time.Second)
	if fs := c.Status(); fs.Leases.Expiries != 1 || fs.Leases.Leased != 0 {
		t.Fatalf("lease %s did not expire after its holder was killed: %+v", victimLease, fs.Leases)
	}

	// A healthy worker finishes everything, including the orphaned range.
	if _, err := RunWorker(context.Background(), WorkerConfig{
		Coordinator: ts.URL, Name: "survivor", Workers: 2,
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("fleet not done after the survivor finished")
	}
	assertGolden(t, c, dir)

	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var victim *LeaseRecord
	for i := range m.Fleet.Leases {
		if m.Fleet.Leases[i].ID == victimLease {
			victim = &m.Fleet.Leases[i]
		}
	}
	if victim == nil {
		t.Fatalf("killed lease %s missing from manifest", victimLease)
	}
	if victim.Worker != "survivor" {
		t.Fatalf("killed lease completed by %q, want the survivor", victim.Worker)
	}
	if victim.Acquires < 2 || victim.Reassignments < 1 {
		t.Fatalf("killed lease records acquires=%d reassignments=%d, want a reassignment", victim.Acquires, victim.Reassignments)
	}
	if m.Fleet.Reassignments < 1 || m.Fleet.Expiries < 1 {
		t.Fatalf("fleet section records reassignments=%d expiries=%d", m.Fleet.Reassignments, m.Fleet.Expiries)
	}
}

// fleetKillChild runs in the forked test process: acquire, renew,
// announce, hang.
func fleetKillChild(base string) {
	ctx := context.Background()
	cl := &Client{Base: base, Worker: "victim"}
	lease, done, _, err := cl.Acquire(ctx)
	if err != nil || done || lease == nil {
		fmt.Fprintf(os.Stderr, "child acquire: lease=%v done=%v err=%v\n", lease, done, err)
		os.Exit(2)
	}
	if err := cl.Renew(ctx, lease.ID, 1); err != nil {
		fmt.Fprintln(os.Stderr, "child renew:", err)
		os.Exit(3)
	}
	fmt.Printf("holding %s\n", lease.ID)
	os.Stdout.Sync()
	select {} // mid-lease forever; the parent SIGKILLs us
}
