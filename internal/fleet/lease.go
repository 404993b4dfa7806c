// Package fleet coordinates a distributed crawl: a coordinator
// partitions a campaign world into leases — contiguous domain ranges
// within one (crawl, OS) leg — and hands them to workers over an HTTP
// control plane. Workers crawl their leased slice of the shared
// deterministic world, heartbeat progress through lease renewals, and
// upload their shard store on completion; the coordinator append-merges
// uploads with idempotent dedup keyed on visited URL, so a lease that
// expires (worker death) can be reassigned and a slow-but-alive worker
// that delivers late cannot corrupt the merge. Every lease transition
// is journaled in the store WAL's frame format, so a restarted
// coordinator resumes the campaign instead of restarting it.
//
// Because every per-site simulation derives from (seed, domain, index)
// alone, the merged store is byte-identical to a single-process run of
// the same campaign — however the fleet sliced, raced, or died.
package fleet

import (
	"fmt"

	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/websim"
)

// Lease is one unit of fleet work: the contiguous target range
// [Lo, Hi) of one (crawl, OS) leg, plus everything a worker needs to
// rebuild exactly the coordinator's world around it.
type Lease struct {
	ID    string `json:"id"`
	Crawl string `json:"crawl"`
	OS    string `json:"os"`
	// Lo and Hi bound the leased slice of the leg's rank-ordered target
	// list: indices [Lo, Hi) into the same deterministic order every
	// fleet member derives from (crawl, scale).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// FirstDomain and LastDomain name the range's endpoints, for humans
	// reading journals and manifests; workers trust the indices.
	FirstDomain string `json:"first_domain"`
	LastDomain  string `json:"last_domain"`

	// World parameters, identical across the fleet. NetProfile names the
	// network-condition profile every worker crawls under (empty =
	// nominal); older journals without it replay as nominal.
	Scale      float64 `json:"scale"`
	Seed       uint64  `json:"seed"`
	RetainLogs bool    `json:"retain_logs"`
	NetProfile string  `json:"net_profile,omitempty"`

	// TTLSeconds is how long the holder has between renewals before the
	// coordinator declares it dead and reassigns the lease.
	TTLSeconds float64 `json:"ttl_seconds"`

	// Traceparent carries the campaign trace's per-lease span in W3C
	// form, so the worker's lease trace parents under the coordinator's
	// campaign root. Coordinator→worker propagation rides the lease JSON
	// (the control plane's response body); worker→coordinator rides the
	// traceparent request header. Empty or malformed values cost
	// nothing: the worker roots its own trace (propagation loss yields a
	// well-formed standalone trace, never a broken one).
	Traceparent string `json:"traceparent,omitempty"`
}

// Targets returns the number of visits the lease covers.
func (l *Lease) Targets() int { return l.Hi - l.Lo }

// legKey identifies one (crawl, OS) leg of the campaign.
type legKey struct {
	crawl groundtruth.CrawlID
	os    hostenv.OS
}

func (k legKey) String() string { return string(k.crawl) + "/" + k.os.String() }

// legsFor expands the crawl list into (crawl, OS) legs in canonical
// order: crawls as configured, each over websim.OSes — the same order
// crawler.RunAll walks.
func legsFor(crawls []groundtruth.CrawlID) []legKey {
	var legs []legKey
	for _, crawl := range crawls {
		for _, os := range websim.OSes(crawl) {
			legs = append(legs, legKey{crawl: crawl, os: os})
		}
	}
	return legs
}

// partition slices every leg of the campaign into leases of at most
// leaseTargets visits each, in canonical order. The coordinator and a
// resumed coordinator must derive the identical partition, so it
// depends only on (crawls, scale, leaseTargets) — never on runtime
// state.
func partition(crawls []groundtruth.CrawlID, scale float64, seed uint64, retainLogs bool, netProfile string, leaseTargets int, ttlSeconds float64) ([]*Lease, error) {
	var leases []*Lease
	for _, leg := range legsFor(crawls) {
		n, err := websim.TargetCount(leg.crawl, scale)
		if err != nil {
			return nil, fmt.Errorf("fleet: sizing %s: %w", leg, err)
		}
		for lo, idx := 0, 0; lo < n; lo, idx = lo+leaseTargets, idx+1 {
			hi := lo + leaseTargets
			if hi > n {
				hi = n
			}
			first, err := websim.TargetDomain(leg.crawl, scale, lo)
			if err != nil {
				return nil, err
			}
			last, err := websim.TargetDomain(leg.crawl, scale, hi-1)
			if err != nil {
				return nil, err
			}
			leases = append(leases, &Lease{
				ID:          fmt.Sprintf("%s/%s/%04d", leg.crawl, leg.os.Letter(), idx),
				Crawl:       string(leg.crawl),
				OS:          leg.os.String(),
				Lo:          lo,
				Hi:          hi,
				FirstDomain: first,
				LastDomain:  last,
				Scale:       scale,
				Seed:        seed,
				RetainLogs:  retainLogs,
				NetProfile:  netProfile,
				TTLSeconds:  ttlSeconds,
			})
		}
	}
	return leases, nil
}
