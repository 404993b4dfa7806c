package queryengine

import (
	"container/list"
	"sync"

	"github.com/knockandtalk/knockandtalk/internal/store"
)

// Scope declares the slice of the corpus a cached response depends on:
// the crawl and domain its filter pinned, "" for unfiltered. The cache
// compares it against the store's commit-scope journal to decide
// whether a generation bump actually touched the entry.
type Scope struct {
	Crawl  string
	Domain string
}

// Cache is a bounded LRU for rendered query responses keyed on the
// canonical query key. Entries are tagged with the store generation
// they were rendered at and the scope they depend on; a Lookup under a
// newer generation revalidates the entry surgically — it stays a hit
// unless some commit since its generation intersects its scope (or the
// journal can no longer say). Ingest of one domain therefore evicts
// that domain's entries and broad listings, not the whole cache.
type Cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key   string
	val   []byte
	gen   uint64
	scope Scope
}

// NewCache returns a cache bounded to max entries; max <= 0 disables
// caching (every Lookup misses, Put is a no-op).
func NewCache(max int) *Cache {
	return &Cache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// Outcome classifies one cache lookup: a plain generation-current hit,
// a hit served by revalidating the entry across generations, or a miss.
// It doubles as the `cache` label value on the server's per-endpoint
// latency histogram.
type Outcome uint8

const (
	Miss Outcome = iota
	Hit
	Revalidated
)

// String renders the outcome as its metric label value.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Revalidated:
		return "revalidated"
	default:
		return "miss"
	}
}

// Lookup returns the cached response for key, classified by whether
// the entry was current at generation gen (Hit), fast-forwarded across
// generations its scope did not intersect (Revalidated), or absent or
// evicted (Miss, with a nil response). An entry rendered at an older
// generation is revalidated through changed — the store's commit-scope
// journal (ScopesSince) — and survives when no commit since intersects
// its scope. The returned slice is shared — callers must not modify it.
func (c *Cache) Lookup(key string, gen uint64, changed func(since uint64) ([]store.CommitScope, bool)) ([]byte, Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, Miss
	}
	outcome := Hit
	ent := el.Value.(*cacheEntry)
	if ent.gen != gen {
		if !c.revalidate(ent, gen, changed) {
			c.ll.Remove(el)
			delete(c.items, key)
			return nil, Miss
		}
		outcome = Revalidated
	}
	c.ll.MoveToFront(el)
	return ent.val, outcome
}

// revalidate decides whether an entry rendered at an older generation
// still describes the store, and fast-forwards its generation if so.
func (c *Cache) revalidate(ent *cacheEntry, gen uint64, changed func(since uint64) ([]store.CommitScope, bool)) bool {
	if changed == nil {
		return false
	}
	scopes, complete := changed(ent.gen)
	if !complete {
		return false // journal wrapped: anything may have changed
	}
	for _, sc := range scopes {
		if sc.Intersects(ent.scope.Crawl, ent.scope.Domain) {
			return false
		}
	}
	// Only advance: a racing request that captured an older generation
	// must not move the tag backwards, or the entry would be re-checked
	// (or evicted) for scopes it already covers.
	if gen > ent.gen {
		ent.gen = gen
	}
	return true
}

// Put stores a response rendered at generation gen for the given
// scope, evicting the least recently used entry when the bound is
// exceeded.
func (c *Cache) Put(key string, val []byte, gen uint64, scope Scope) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.val, ent.gen, ent.scope = val, gen, scope
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val, gen: gen, scope: scope})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// Len reports the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
