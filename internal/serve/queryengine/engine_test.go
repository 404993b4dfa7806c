package queryengine

import (
	"fmt"
	"testing"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/portdb"
	"github.com/knockandtalk/knockandtalk/internal/store"
)

// testStore builds a small two-crawl store: one ThreatMetrix-probing
// site, one LAN dev remnant, one failed page.
func testStore() *store.Store {
	st := store.New()
	st.AddPage(store.PageRecord{Crawl: "top100k-2020", OS: "Windows", Domain: "ebay.com", Rank: 104, URL: "https://ebay.com/"})
	st.AddPage(store.PageRecord{Crawl: "top100k-2020", OS: "Linux", Domain: "ebay.com", Rank: 104, URL: "https://ebay.com/"})
	st.AddPage(store.PageRecord{Crawl: "top100k-2021", OS: "Windows", Domain: "dead.example", Err: "ERR_NAME_NOT_RESOLVED", URL: "https://dead.example/"})
	for i, p := range portdb.ThreatMetrixPorts() {
		st.AddLocal(store.LocalRequest{
			Crawl: "top100k-2020", OS: "Windows", Domain: "ebay.com", Rank: 104,
			URL: fmt.Sprintf("wss://localhost:%d/", p), Scheme: "wss", Host: "localhost",
			Port: p, Path: "/", Dest: "localhost", Delay: time.Duration(10+i) * time.Second,
			NetError: "ERR_CONNECTION_REFUSED", SOPExempt: true,
		})
	}
	st.AddLocal(store.LocalRequest{
		Crawl: "top100k-2021", OS: "Linux", Domain: "shop.example", Rank: 7001,
		URL: "http://192.168.1.5/wp-content/logo.png", Scheme: "http", Host: "192.168.1.5",
		Port: 80, Path: "/wp-content/logo.png", Dest: "lan", Delay: 2 * time.Second,
	})
	return st
}

func TestLocalsFilterAndLimit(t *testing.T) {
	e := New(testStore())
	all, total := e.Locals(LocalsFilter{})
	if want := len(portdb.ThreatMetrixPorts()) + 1; total != want || len(all) != want {
		t.Fatalf("unfiltered = %d rows, total %d, want %d", len(all), total, want)
	}
	rows, total := e.Locals(LocalsFilter{Dest: "localhost", Limit: 3})
	if len(rows) != 3 || total != len(portdb.ThreatMetrixPorts()) {
		t.Fatalf("limited = %d rows of %d", len(rows), total)
	}
	rows, _ = e.Locals(LocalsFilter{Crawl: "top100k-2021", OS: "Linux"})
	if len(rows) != 1 || rows[0].Domain != "shop.example" {
		t.Fatalf("crawl+os filter = %v", rows)
	}
	if rows, _ := e.Locals(LocalsFilter{Domain: "nosuch.example"}); len(rows) != 0 {
		t.Fatalf("miss returned %v", rows)
	}
}

func TestPagesFilter(t *testing.T) {
	e := New(testStore())
	rows, total := e.Pages(PagesFilter{Err: "ERR_NAME_NOT_RESOLVED"})
	if total != 1 || rows[0].Domain != "dead.example" {
		t.Fatalf("err filter = %v (total %d)", rows, total)
	}
	if _, total := e.Pages(PagesFilter{Domain: "ebay.com"}); total != 2 {
		t.Fatalf("domain filter total = %d, want 2 (one per OS)", total)
	}
}

func TestSiteReportMatchesOfflineClassifier(t *testing.T) {
	e := New(testStore())
	rep := e.Site("ebay.com")
	if rep.LocalhostVerdict == nil {
		t.Fatal("no localhost verdict for a ThreatMetrix-probing site")
	}
	if rep.LocalhostVerdict.Class != groundtruth.ClassFraudDetection || rep.LocalhostVerdict.Signature != "threatmetrix" {
		t.Fatalf("verdict = %+v, want fraud-detection/threatmetrix", rep.LocalhostVerdict)
	}
	if rep.LANVerdict != nil {
		t.Fatalf("spurious LAN verdict: %+v", rep.LANVerdict)
	}
	lan := e.Site("shop.example")
	if lan.LANVerdict == nil || lan.LANVerdict.Class != groundtruth.ClassDevError {
		t.Fatalf("LAN verdict = %+v, want developer error", lan.LANVerdict)
	}
	if empty := e.Site("nosuch.example"); empty.LocalhostVerdict != nil || len(empty.Pages) != 0 {
		t.Fatalf("empty site report not empty: %+v", empty)
	}
}

func TestCanonicalKeys(t *testing.T) {
	a := LocalsFilter{Domain: "ebay.com", Dest: "localhost", Limit: 10}
	b := LocalsFilter{Dest: "localhost", Domain: "ebay.com", Limit: 10}
	if a.Key() != b.Key() {
		t.Errorf("equivalent filters render different keys: %q vs %q", a.Key(), b.Key())
	}
	if a.Key() == (LocalsFilter{Domain: "ebay.com", Dest: "lan", Limit: 10}).Key() {
		t.Error("distinct filters share a key")
	}
	if (PagesFilter{Domain: "x"}).Key() == (LocalsFilter{Domain: "x"}).Key() {
		t.Error("pages and locals keys collide")
	}
}

func TestGeneration(t *testing.T) {
	e := New(testStore())
	g := e.Generation()
	e.BumpGeneration()
	if e.Generation() != g+1 {
		t.Errorf("generation did not advance: %d -> %d", g, e.Generation())
	}
}

func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	c.Put("a", []byte("A"), 1, Scope{})
	c.Put("b", []byte("B"), 1, Scope{})
	if v, o := c.Lookup("a", 1, nil); o != Hit || string(v) != "A" {
		t.Fatalf("Lookup(a) = %q, %v", v, o)
	}
	c.Put("c", []byte("C"), 1, Scope{}) // evicts b (a was just used)
	if v, o := c.Lookup("b", 1, nil); o != Miss || v != nil {
		t.Errorf("Lookup(b) = %q, %v: b survived eviction; LRU order wrong", v, o)
	}
	if _, o := c.Lookup("a", 1, nil); o != Hit {
		t.Errorf("Lookup(a) = %v: a evicted although recently used", o)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	// Overwrite keeps a single entry.
	c.Put("a", []byte("A2"), 1, Scope{})
	if v, o := c.Lookup("a", 1, nil); o != Hit || string(v) != "A2" {
		t.Errorf("overwrite lost: %q, %v", v, o)
	}
	// A disabled cache never stores.
	d := NewCache(0)
	d.Put("x", []byte("X"), 1, Scope{})
	if _, o := d.Lookup("x", 1, nil); o != Miss {
		t.Errorf("disabled cache answered %v", o)
	}
}

// TestCacheScopeRevalidation pins surgical invalidation: an entry
// rendered at an older generation survives when the commits since do
// not intersect its scope, and is evicted when one does — or when the
// journal can no longer account for the span.
func TestCacheScopeRevalidation(t *testing.T) {
	changes := func(scopes ...store.CommitScope) func(uint64) ([]store.CommitScope, bool) {
		return func(uint64) ([]store.CommitScope, bool) { return scopes, true }
	}

	c := NewCache(8)
	c.Put("a", []byte("A"), 1, Scope{Crawl: "live", Domain: "a.example"})
	c.Put("b", []byte("B"), 1, Scope{Crawl: "live", Domain: "b.example"})
	c.Put("sum", []byte("S"), 1, Scope{}) // summary: depends on everything

	// A commit scoped to a.example: a and the summary die, b survives.
	delta := changes(store.CommitScope{Gen: 2, Crawl: "live", Domain: "a.example"})
	if _, o := c.Lookup("a", 2, delta); o != Miss {
		t.Errorf("entry for the ingested domain must be invalidated, got %v", o)
	}
	if _, o := c.Lookup("sum", 2, delta); o != Miss {
		t.Errorf("broad-scope entry must be invalidated by any commit, got %v", o)
	}
	if v, o := c.Lookup("b", 2, delta); o != Revalidated || string(v) != "B" {
		t.Errorf("entry for an untouched domain must survive the generation bump as revalidated, got %q, %v", v, o)
	}
	// The survivor was fast-forwarded: the same generation is now a
	// plain hit, no journal consultation.
	if _, o := c.Lookup("b", 2, nil); o != Hit {
		t.Errorf("revalidated entry must carry the new generation, got %v", o)
	}

	// A broad commit (bulk load, BumpGeneration) kills everything.
	c.Put("b2", []byte("B"), 2, Scope{Domain: "b.example"})
	if _, o := c.Lookup("b2", 3, changes(store.CommitScope{Gen: 3, Broad: true})); o != Miss {
		t.Errorf("broad commit must invalidate scoped entries, got %v", o)
	}

	// An incomplete journal (wrapped ring) means anything may have
	// changed: evict.
	c.Put("c", []byte("C"), 1, Scope{Domain: "c.example"})
	wrapped := func(uint64) ([]store.CommitScope, bool) { return nil, false }
	if _, o := c.Lookup("c", 9, wrapped); o != Miss {
		t.Errorf("incomplete change history must evict, got %v", o)
	}

	// A crawl-scoped filter is untouched by commits to another crawl.
	c.Put("crawl", []byte("X"), 1, Scope{Crawl: "top100k-2020"})
	if _, o := c.Lookup("crawl", 2, changes(store.CommitScope{Gen: 2, Crawl: "live", Domain: "z.example"})); o != Revalidated {
		t.Errorf("commit in another crawl must not evict a crawl-scoped entry, got %v", o)
	}

	// A racing request that captured an older generation must not move
	// an entry's tag backwards: the entry keeps its newer generation and
	// the next same-generation Lookup is a plain hit with no journal.
	c.Put("race", []byte("R"), 5, Scope{Domain: "r.example"})
	if _, o := c.Lookup("race", 3, changes()); o != Revalidated {
		t.Errorf("older-generation reader should still hit an untouched entry, got %v", o)
	}
	if _, o := c.Lookup("race", 5, nil); o != Hit {
		t.Errorf("entry generation moved backwards after an older-generation Lookup, got %v", o)
	}
}
