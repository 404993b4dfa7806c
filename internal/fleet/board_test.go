package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/store"
)

// boardCrawls is the campaign the board tests lay leases out under: the
// 2021 crawl, so two legs (Windows and Linux).
var boardCrawls = []groundtruth.CrawlID{groundtruth.CrawlTop2021}

// boardLeases partitions each of boardCrawls' legs into perLeg leases
// of 8 targets, named the way partition names them.
func boardLeases(perLeg int) []*Lease {
	var leases []*Lease
	for _, leg := range legsFor(boardCrawls) {
		for i := 0; i < perLeg; i++ {
			leases = append(leases, &Lease{
				ID:    fmt.Sprintf("%s/%s/%04d", leg.crawl, leg.os.Letter(), i),
				Crawl: string(leg.crawl), OS: leg.os.String(),
				Lo: 8 * i, Hi: 8*i + 8,
			})
		}
	}
	return leases
}

// replayBoard builds a fresh board from journal entries, as a
// restarted coordinator does.
func replayBoard(leases []*Lease, ttl time.Duration, journal []journalEntry) *board {
	b := newBoard(boardCrawls, leases, ttl)
	for _, e := range journal {
		b.apply(e)
	}
	return b
}

// boardSnapshot renders the journaled fields of every lease — what
// replay must reproduce.
func boardSnapshot(b *board) string {
	var buf bytes.Buffer
	for _, ls := range b.leases {
		fmt.Fprintf(&buf, "%s state=%s holder=%q acquires=%d expiries=%d completedBy=%q\n",
			ls.ID, ls.state, ls.worker, ls.acquires, ls.expiries, ls.completedBy)
	}
	return buf.String()
}

// schedWorker is one simulated worker's own view: the lease it thinks
// it holds, until when its last acquire or renew keeps it, and every
// lease it was ever granted (and so may deliver, late or twice).
type schedWorker struct {
	name    string
	held    string
	validTo time.Time
	granted []string
}

// schedule drives one board the way the coordinator does — every
// access expires overdue leases first, transitions go through commit —
// while recording the journal a restart replays.
type schedule struct {
	t       *testing.T
	seed    uint64
	step    int
	op      string
	leases  []*Lease
	ttl     time.Duration
	b       *board
	journal []journalEntry
	now     time.Time
	closes  int // done transitions in this board's life
}

func (s *schedule) fatalf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("seed=%d step=%d (%s): %s", s.seed, s.step, s.op, fmt.Sprintf(format, args...))
}

// commit mirrors Coordinator.commit without the live effects: refuse
// what the board refuses, journal, apply, and count Done closing.
func (s *schedule) commit(e journalEntry) bool {
	if s.b.legal(e) == nil {
		return false
	}
	s.journal = append(s.journal, e)
	wasDone := s.b.done()
	s.b.apply(e)
	if !wasDone && s.b.done() {
		s.closes++
	}
	return true
}

// access is the coordinator's lock(): expiry first.
func (s *schedule) access() { s.b.expire(s.now, s.commit) }

// restart replays the journal into a fresh board and recovers as New
// does; no worker hears of it.
func (s *schedule) restart(workers []*schedWorker) {
	s.b = replayBoard(s.leases, s.ttl, s.journal)
	s.closes = 0
	if s.b.done() {
		s.closes = 1
	}
	s.access()
	for _, w := range workers {
		w.validTo = time.Time{}
	}
}

func (s *schedule) acquire(w *schedWorker) {
	var before *leaseState
	for _, ls := range s.b.leases {
		if ls.state == leaseLeased && ls.worker == w.name && s.now.Before(ls.deadline) {
			before = ls
		}
	}
	s.access()
	ls, done := s.b.acquire(w.name, s.now, s.commit)
	if before != nil && ls != before {
		s.fatalf("%s held %s but acquire granted %v", w.name, before.ID, ls)
	}
	if ls == nil {
		if done != s.b.done() {
			s.fatalf("acquire reported done=%v with board done=%v", done, s.b.done())
		}
		return
	}
	if ls.state != leaseLeased || ls.worker != w.name {
		s.fatalf("granted %s is %s held by %q", ls.ID, ls.state, ls.worker)
	}
	w.held, w.validTo = ls.ID, s.now.Add(s.ttl)
	w.granted = append(w.granted, ls.ID)
}

func (s *schedule) renew(w *schedWorker) {
	ls := s.b.byID[w.held]
	want := s.now.Before(w.validTo) && ls.state != leaseComplete
	s.access()
	s.b.touch(w.name, s.now)
	got := s.b.renew(ls, w.name, 1, s.now)
	if got != want {
		s.fatalf("%s renewing %s (valid to %v, now %v, %s): renewed=%v, want %v",
			w.name, ls.ID, w.validTo, s.now, ls.state, got, want)
	}
	if got {
		w.validTo = s.now.Add(s.ttl)
	} else {
		w.held = "" // ErrLeaseLost: keep crawling, deliver later
	}
}

func (s *schedule) complete(w *schedWorker, id string) {
	ls := s.b.byID[id]
	want := ls.state != leaseComplete
	s.access()
	s.b.touch(w.name, s.now)
	if got := s.commit(journalEntry{Type: "complete", Lease: id, Worker: w.name}); got != want {
		s.fatalf("%s completing %s: committed=%v, want %v", w.name, id, got, want)
	}
	if ls.state != leaseComplete {
		s.fatalf("%s is %s after a delivery", id, ls.state)
	}
	if id == w.held {
		w.held = ""
	}
}

// check verifies every board invariant after a step.
func (s *schedule) check(accessed bool) {
	s.t.Helper()
	replayed := replayBoard(s.leases, s.ttl, nil)
	for i, e := range s.journal {
		if replayed.apply(e) == nil {
			s.fatalf("journal entry %d (%s %s) is not legal on replay", i, e.Type, e.Lease)
		}
	}
	if got, want := boardSnapshot(replayed), boardSnapshot(s.b); got != want {
		s.fatalf("replay diverges from the live board:\nreplayed:\n%slive:\n%s", got, want)
	}
	// The journal read on its own: per lease, entry counts and the last
	// entry fix what the board must show.
	type tally struct {
		acquire, expire, complete int
		last                      journalEntry
	}
	tallies := map[string]*tally{}
	for _, e := range s.journal {
		tl := tallies[e.Lease]
		if tl == nil {
			tl = &tally{}
			tallies[e.Lease] = tl
		}
		switch e.Type {
		case "acquire":
			tl.acquire++
		case "expire":
			tl.expire++
		case "complete":
			if tl.complete++; tl.complete > 1 {
				s.fatalf("lease %s journaled complete twice", e.Lease)
			}
		}
		tl.last = e
	}
	for _, ls := range s.b.leases {
		tl := tallies[ls.ID]
		if tl == nil {
			tl = &tally{last: journalEntry{Type: "expire"}}
		}
		want := map[string]leaseStateCode{"acquire": leaseLeased, "expire": leaseAvailable, "complete": leaseComplete}[tl.last.Type]
		if ls.state != want || ls.acquires != tl.acquire || ls.expiries != tl.expire ||
			(want == leaseLeased && ls.worker != tl.last.Worker) || (want == leaseComplete && ls.completedBy != tl.last.Worker) {
			s.fatalf("lease %s (%s, holder %q, %d acquires, %d expiries, completed by %q) disagrees with its journal (%d acquires, %d expiries, last %s by %q)",
				ls.ID, ls.state, ls.worker, ls.acquires, ls.expiries, ls.completedBy, tl.acquire, tl.expire, tl.last.Type, tl.last.Worker)
		}
	}
	held := map[string]string{}
	for _, ls := range s.b.leases {
		if ls.state != leaseLeased {
			continue
		}
		if accessed && !s.now.Before(ls.deadline) {
			s.fatalf("lease %s is leased past its deadline %v at %v", ls.ID, ls.deadline, s.now)
		}
		if prev, ok := held[ls.worker]; ok {
			s.fatalf("worker %s holds both %s and %s", ls.worker, prev, ls.ID)
		}
		held[ls.worker] = ls.ID
		if w := s.b.workers[ls.worker]; w != nil && w.lease != ls.ID {
			s.fatalf("lease %s names holder %s, whose record holds %q", ls.ID, ls.worker, w.lease)
		}
	}
	for name, w := range s.b.workers {
		if w.lease != "" && held[name] != w.lease {
			s.fatalf("worker %s records lease %s, which does not name it as holder", name, w.lease)
		}
	}
	if s.closes > 1 {
		s.fatalf("Done closed %d times", s.closes)
	}
}

// TestBoardSchedules drives the pure lease board through hundreds of
// seeded schedules — acquires (some with lost responses), renewals,
// on-time, late and duplicate completions, clock jumps past the TTL and
// coordinator restarts — checking every invariant after every step,
// then drives each schedule to quiescence. A failure names its seed;
// -run 'TestBoardSchedules/seed=N' replays it alone.
func TestBoardSchedules(t *testing.T) {
	const seeds = 500
	for seed := uint64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0x6b6e6f636b))
			s := &schedule{
				t: t, seed: seed, ttl: time.Minute,
				leases: boardLeases(1 + rng.IntN(3)),
				now:    time.Date(2020, 7, 24, 0, 0, 0, 0, time.UTC),
			}
			s.b = newBoard(boardCrawls, s.leases, s.ttl)
			workers := make([]*schedWorker, 2+rng.IntN(3))
			for i := range workers {
				workers[i] = &schedWorker{name: fmt.Sprintf("w%d", i)}
			}
			for s.step = 0; s.step < 60; s.step++ {
				w := workers[rng.IntN(len(workers))]
				accessed := true
				switch r := rng.IntN(100); {
				case r < 25:
					s.op = "acquire " + w.name
					s.acquire(w)
				case r < 30:
					s.op = "acquire (response lost) " + w.name
					// The worker never learns of a new grant; a re-grant of
					// the lease it holds still extended the deadline.
					held, validTo := w.held, w.validTo
					s.acquire(w)
					if w.held != held {
						w.held, w.validTo = held, validTo
					}
				case r < 50 && w.held != "":
					s.op = "renew " + w.name
					s.renew(w)
				case r < 70 && len(w.granted) > 0:
					id := w.granted[rng.IntN(len(w.granted))]
					s.op = "complete " + w.name + " " + id
					s.complete(w, id)
				case r < 90:
					d := time.Duration(rng.Int64N(int64(2 * s.ttl)))
					s.op = fmt.Sprintf("advance %v", d)
					s.now = s.now.Add(d)
					accessed = false
				case r < 95:
					s.op = "restart"
					s.restart(workers)
				default:
					s.op = "status"
					s.access()
				}
				s.check(accessed)
			}

			// Quiescence: workers acquire and deliver until the board says
			// done; every lease must complete and Done close exactly once.
			s.op = "quiesce"
			for round := 0; !s.b.done(); round++ {
				if round > 2*(len(s.leases)+1)*len(workers) {
					s.fatalf("no progress toward done:\n%s", boardSnapshot(s.b))
				}
				w := workers[round%len(workers)]
				s.acquire(w)
				if w.held != "" {
					s.complete(w, w.held)
				}
				s.check(true)
				s.now = s.now.Add(time.Second)
			}
			for _, ls := range s.b.leases {
				if ls.state != leaseComplete || ls.completedBy == "" {
					s.fatalf("quiesced with %s %s (completed by %q)", ls.ID, ls.state, ls.completedBy)
				}
			}
			if s.closes != 1 {
				s.fatalf("Done closed %d times in the final life, want 1", s.closes)
			}
		})
	}
}

// FuzzJournalReplay feeds the lease journal arbitrary bytes — a valid
// frame around a fuzzed JSON payload, then a fuzzed tail — through
// openJournal into board.apply. Replay must never panic; it either
// refuses the file or yields a board whose per-state counts add up,
// and replaying the (possibly tail-truncated) file again yields the
// identical board.
func FuzzJournalReplay(f *testing.F) {
	entry := func(e journalEntry) []byte {
		raw, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	frames := func(es ...journalEntry) []byte {
		var buf bytes.Buffer
		for _, e := range es {
			if _, err := store.AppendFrame(&buf, entry(e)); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	header := entry(journalEntry{Seq: 1, Type: "campaign", Crawls: []string{"top100k-2021"}, LeaseTargets: 8})
	l0, l1 := "top100k-2021/W/0000", "top100k-2021/L/0000"
	f.Add(header, frames(
		journalEntry{Seq: 2, Type: "acquire", Lease: l0, Worker: "a"},
		journalEntry{Seq: 3, Type: "expire", Lease: l0, Worker: "a"},
		journalEntry{Seq: 4, Type: "acquire", Lease: l0, Worker: "b"},
		journalEntry{Seq: 5, Type: "complete", Lease: l0, Worker: "a", Attempted: 8},
	))
	f.Add(entry(journalEntry{Seq: 2, Type: "complete", Lease: l1, Worker: "x"}), frames(
		journalEntry{Seq: 3, Type: "complete", Lease: l1, Worker: "y"},
		journalEntry{Seq: 4, Type: "expire", Lease: "nope"},
	)[:20])
	f.Add([]byte(`{"seq":1,"type":"acquire","lease":`), []byte{0xff, 0, 0, 0, 1})
	f.Add([]byte(`[]`), []byte(nil))
	leases := boardLeases(2)
	dir := f.TempDir() // inputs run one at a time per process
	f.Fuzz(func(t *testing.T, payload, tail []byte) {
		var buf bytes.Buffer
		buf.WriteString(journalMagic)
		if _, err := store.AppendFrame(&buf, payload); err != nil {
			t.Skip("payload too large to frame")
		}
		buf.Write(tail)
		if err := os.WriteFile(filepath.Join(dir, journalName), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		replay := func() (*board, error) {
			b := newBoard(boardCrawls, leases, time.Minute)
			j, _, err := openJournal(dir, func(e journalEntry) { b.apply(e) })
			if err != nil {
				return nil, err
			}
			return b, j.f.Close() // no fsync: nothing was appended
		}
		b, err := replay()
		if err != nil {
			return // refused
		}
		var counts [3]int
		for _, ls := range b.leases {
			counts[ls.state]++
		}
		if counts[leaseAvailable]+counts[leaseLeased]+counts[leaseComplete] != len(leases) || counts[leaseComplete] != b.complete {
			t.Fatalf("state counts %v do not add up to %d leases (%d complete)", counts, len(leases), b.complete)
		}
		again, err := replay()
		if err != nil {
			t.Fatalf("second replay refused a journal the first accepted: %v", err)
		}
		if got, want := boardSnapshot(again), boardSnapshot(b); got != want {
			t.Fatalf("replays diverge:\n%s\nvs\n%s", got, want)
		}
	})
}
