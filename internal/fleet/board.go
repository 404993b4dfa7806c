package fleet

import (
	"time"

	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/health"
)

// leaseStateCode is a lease's position in the state machine.
type leaseStateCode int

const (
	leaseAvailable leaseStateCode = iota
	leaseLeased
	leaseComplete
)

func (c leaseStateCode) String() string {
	switch c {
	case leaseAvailable:
		return "available"
	case leaseLeased:
		return "leased"
	default:
		return "complete"
	}
}

// leaseState is the board's bookkeeping around one Lease.
type leaseState struct {
	*Lease
	leg      *legState
	state    leaseStateCode
	worker   string    // current holder while leased
	deadline time.Time // renewal deadline while leased
	visited  int       // holder's last heartbeat progress
	reported int       // visits already fed to the health leg
	acquires int
	expiries int
	// completion facts, from the merged (first) delivery:
	completedBy string
	duplicates  int
	uploadMS    float64
}

// legState aggregates one (crawl, OS) leg.
type legState struct {
	key      legKey
	total    int
	leases   []*leaseState
	complete int
	merged   int // visits committed to the campaign store
	health   *health.CrawlProgress
	// entry accumulates the leg's manifest row from lease completions.
	attempted, successful, failed, locals, retention int
	elapsedMS                                        float64
}

// workerState is what the coordinator knows about one worker.
type workerState struct {
	name     string
	lastSeen time.Time
	lease    string // currently held lease, "" when idle
}

// board is the lease state machine: every lease, leg and worker, and
// the one transition function (apply) that both the live control plane
// and journal replay drive, so recovery is the live code. It does no
// I/O and reads no clock: callers pass the time, and the coordinator
// journals each entry before applying it.
type board struct {
	ttl       time.Duration
	leases    []*leaseState
	byID      map[string]*leaseState
	legs      []*legState
	legByName map[string]*legState
	workers   map[string]*workerState
	complete  int
}

// newBoard lays out the partition's leases, all available, under the
// (crawl, OS) legs of crawls.
func newBoard(crawls []groundtruth.CrawlID, leases []*Lease, ttl time.Duration) *board {
	b := &board{
		ttl:       ttl,
		byID:      map[string]*leaseState{},
		legByName: map[string]*legState{},
		workers:   map[string]*workerState{},
	}
	for _, k := range legsFor(crawls) {
		leg := &legState{key: k}
		b.legs = append(b.legs, leg)
		b.legByName[legName(string(k.crawl), k.os.String())] = leg
	}
	for _, l := range leases {
		ls := &leaseState{Lease: l, leg: b.legByName[legName(l.Crawl, l.OS)]}
		ls.leg.leases = append(ls.leg.leases, ls)
		ls.leg.total += l.Targets()
		b.leases = append(b.leases, ls)
		b.byID[l.ID] = ls
	}
	return b
}

// legal returns the lease e transitions when e is a legal move from
// that lease's current state, nil otherwise: acquire takes an
// available lease, expire a leased one, and complete any lease not yet
// complete — a late delivery from an expired holder still completes
// it, while a second completion is refused.
func (b *board) legal(e journalEntry) *leaseState {
	ls := b.byID[e.Lease]
	if ls == nil {
		return nil
	}
	switch {
	case e.Type == "acquire" && ls.state == leaseAvailable,
		e.Type == "expire" && ls.state == leaseLeased,
		e.Type == "complete" && ls.state != leaseComplete:
		return ls
	}
	return nil
}

// apply performs one journaled transition and returns the lease it
// moved, or nil when the entry is not legal (see legal) and changed
// nothing. An acquire leaves the deadline zero — the live grant sets
// it — so a holder replayed from the journal, whose renewals this
// process never hears, is overdue at the first access.
func (b *board) apply(e journalEntry) *leaseState {
	ls := b.legal(e)
	if ls == nil {
		return nil
	}
	if w := b.workers[ls.worker]; w != nil && w.lease == ls.ID {
		w.lease = ""
	}
	ls.worker, ls.visited, ls.deadline = "", 0, time.Time{}
	switch e.Type {
	case "acquire":
		ls.state = leaseLeased
		ls.worker = e.Worker
		ls.acquires++
		if w := b.workers[e.Worker]; w != nil {
			w.lease = ls.ID
		}
	case "expire":
		ls.state = leaseAvailable
		ls.expiries++
	case "complete":
		ls.state = leaseComplete
		ls.completedBy = e.Worker
		ls.duplicates = e.Duplicates
		ls.uploadMS = e.UploadMS
		b.complete++
		leg := ls.leg
		leg.complete++
		leg.attempted += e.Attempted
		leg.successful += e.Successful
		leg.failed += e.Failed
		leg.locals += e.Locals
		leg.retention += e.Retention
		leg.elapsedMS += e.ElapsedMS
	}
	return ls
}

// done reports that every lease is complete.
func (b *board) done() bool { return b.complete == len(b.leases) }

// touch records a control-plane contact from worker at now.
func (b *board) touch(worker string, now time.Time) {
	if worker == "" {
		return
	}
	w := b.workers[worker]
	if w == nil {
		w = &workerState{name: worker}
		b.workers[worker] = w
	}
	w.lastSeen = now
}

// expire commits an expiry for every lease whose holder let its
// deadline pass by now. Expiry is a function of the clock alone, so
// every access runs this first and no caller ever sees an overdue
// lease as leased.
func (b *board) expire(now time.Time, commit func(journalEntry) bool) {
	for _, ls := range b.leases {
		if ls.state == leaseLeased && !now.Before(ls.deadline) {
			commit(journalEntry{Type: "expire", Lease: ls.ID, Worker: ls.worker})
		}
	}
}

// acquire grants worker a lease at now: the one it already holds — its
// earlier acquire's response was lost, or it restarted under the same
// name — else the first available one, committed as an acquire entry.
// A nil lease means none is free; done then reports that every lease
// is complete rather than leased out.
func (b *board) acquire(worker string, now time.Time, commit func(journalEntry) bool) (ls *leaseState, done bool) {
	b.touch(worker, now)
	if w := b.workers[worker]; w != nil && w.lease != "" {
		ls = b.byID[w.lease]
	} else {
		for _, cand := range b.leases {
			if cand.state == leaseAvailable {
				commit(journalEntry{Type: "acquire", Lease: cand.ID, Worker: worker})
				ls = cand
				break
			}
		}
	}
	if ls == nil {
		return nil, b.done()
	}
	ls.deadline = now.Add(b.ttl)
	return ls, false
}

// renew extends worker's hold on ls to one TTL past now and records
// its heartbeat progress; false when the worker no longer holds the
// lease (it expired, was reassigned or completed).
func (b *board) renew(ls *leaseState, worker string, visited int, now time.Time) bool {
	if ls.state != leaseLeased || ls.worker != worker {
		return false
	}
	ls.deadline = now.Add(b.ttl)
	ls.visited = max(ls.visited, visited)
	return true
}

// progress advances the lease's health high-water mark to n visits,
// capped at its target count, calling step once per newly covered
// visit. The mark is per lease, so a reassigned lease's second holder
// re-covers ground without double-counting.
func (ls *leaseState) progress(n int, step func()) {
	for ; ls.reported < min(n, ls.Targets()); ls.reported++ {
		step()
	}
}
