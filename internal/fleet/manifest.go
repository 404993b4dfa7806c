package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/campaign"
)

// Manifest is a fleet campaign's manifest: the single-process campaign
// manifest — same stores map, same per-(crawl, OS) entry rows, so every
// existing consumer (knockreport, the examples) reads it unchanged —
// plus the fleet section recording how the work was distributed.
type Manifest struct {
	campaign.Manifest
	Fleet *Info `json:"fleet,omitempty"`
}

// Info is the distribution record of a fleet campaign.
type Info struct {
	// Workers lists every worker that completed at least one lease.
	Workers []string `json:"workers"`
	// LeaseTargets, TTLSeconds echo the partition parameters.
	LeaseTargets int     `json:"lease_targets"`
	TTLSeconds   float64 `json:"ttl_seconds"`
	// Expiries counts TTL deaths across the campaign; Reassignments
	// counts re-acquisitions after them; DuplicateVisits counts pages
	// dropped by the merge's dedup.
	Expiries        int `json:"expiries,omitempty"`
	Reassignments   int `json:"reassignments,omitempty"`
	DuplicateVisits int `json:"duplicate_visits,omitempty"`
	// Leases records every lease's outcome.
	Leases []LeaseRecord `json:"leases"`
}

// LeaseRecord is one lease's row in the manifest.
type LeaseRecord struct {
	ID          string `json:"id"`
	Crawl       string `json:"crawl"`
	OS          string `json:"os"`
	Targets     int    `json:"targets"`
	FirstDomain string `json:"first_domain"`
	LastDomain  string `json:"last_domain"`
	// Worker completed the lease ("(recovered)" when a coordinator
	// restart recognized an already-merged range).
	Worker   string `json:"worker"`
	Acquires int    `json:"acquires"`
	// Reassignments is acquires beyond the first — each one is a TTL
	// expiry or coordinator restart that put the lease back in the pool.
	Reassignments int `json:"reassignments,omitempty"`
	Duplicates    int `json:"duplicates,omitempty"`
	// UploadMS is the completing worker's measured shard-upload time.
	UploadMS float64 `json:"upload_ms,omitempty"`
}

// WriteOutputs saves the canonical per-crawl stores and the fleet
// manifest into OutDir — the same layout campaign.Run leaves, plus the
// fleet section. Byte-stable: Save's canonical order does not depend on
// how the fleet interleaved deliveries.
func (c *Coordinator) WriteOutputs() (*Manifest, error) {
	c.lock()
	defer c.mu.Unlock()
	m := &Manifest{}
	m.Name = c.cfg.Name
	m.Scale = c.cfg.Scale
	m.Seed = c.cfg.Seed
	m.Stores = map[string]string{}
	for _, crawl := range c.cfg.Crawls {
		path := filepath.Join(c.cfg.OutDir, string(crawl)+".jsonl")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := c.stores[crawl].Save(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: saving %s: %w", crawl, err)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		m.Stores[string(crawl)] = path
	}
	info := &Info{LeaseTargets: c.cfg.LeaseTargets, TTLSeconds: c.cfg.TTL.Seconds()}
	workers := map[string]bool{}
	for _, leg := range c.b.legs {
		m.Entries = append(m.Entries, campaign.Entry{
			Crawl: string(leg.key.crawl), OS: leg.key.os.String(),
			NetProfile: c.cfg.NetProfile,
			Attempted:  leg.attempted, Successful: leg.successful, Failed: leg.failed,
			LocalRequests: leg.locals, RetentionErrors: leg.retention,
			Elapsed: time.Duration(leg.elapsedMS * float64(time.Millisecond)),
		})
	}
	for _, ls := range c.b.leases {
		if ls.completedBy != "" && ls.completedBy != "(recovered)" {
			workers[ls.completedBy] = true
		}
		info.Expiries += ls.expiries
		if ls.acquires > 1 {
			info.Reassignments += ls.acquires - 1
		}
		info.DuplicateVisits += ls.duplicates
		info.Leases = append(info.Leases, LeaseRecord{
			ID: ls.ID, Crawl: ls.Crawl, OS: ls.OS, Targets: ls.Targets(),
			FirstDomain: ls.FirstDomain, LastDomain: ls.LastDomain,
			Worker: ls.completedBy, Acquires: ls.acquires,
			Reassignments: max(ls.acquires-1, 0),
			Duplicates:    ls.duplicates, UploadMS: ls.uploadMS,
		})
	}
	info.Workers = make([]string, 0, len(workers))
	for w := range workers {
		info.Workers = append(info.Workers, w)
	}
	sort.Strings(info.Workers)
	m.Fleet = info
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(c.cfg.OutDir, "manifest.json"), raw, 0o644); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadManifest reads a manifest from dir. Fleet is nil for manifests
// written by single-process campaigns.
func LoadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("fleet: parsing manifest: %w", err)
	}
	return &m, nil
}
