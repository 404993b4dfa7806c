package fleet

import (
	"encoding/json"
	"net/http"
	"sort"
)

// FleetStatus is the wire form of GET /v1/fleet/status: the lease state
// machine, per-leg progress with live rates pulled from the health
// plane, and the workers the coordinator has heard from.
type FleetStatus struct {
	Name  string  `json:"name"`
	Scale float64 `json:"scale"`
	Seed  uint64  `json:"seed"`
	// Done reports that every lease has completed and merged.
	Done bool `json:"done"`

	Leases  LeaseCounts   `json:"leases"`
	Legs    []LegStatus   `json:"legs"`
	Workers []WorkerState `json:"workers,omitempty"`

	// MergedVisits and DuplicateVisits count pages committed to the
	// campaign stores and pages dropped by dedup, fleet-wide.
	MergedVisits    int `json:"merged_visits"`
	DuplicateVisits int `json:"duplicate_visits,omitempty"`

	// PagesPerSec sums the legs' live rates; ETASeconds divides the
	// remaining targets by it.
	PagesPerSec float64 `json:"pages_per_sec"`
	ETASeconds  float64 `json:"eta_seconds,omitempty"`
}

// LeaseCounts tallies leases by state.
type LeaseCounts struct {
	Total     int `json:"total"`
	Available int `json:"available"`
	Leased    int `json:"leased"`
	Complete  int `json:"complete"`
	// Expiries counts TTL deaths (a lease can expire more than once);
	// Reassignments counts acquisitions after the first.
	Expiries      int `json:"expiries,omitempty"`
	Reassignments int `json:"reassignments,omitempty"`
}

// LegStatus is one (crawl, OS) leg's fleet view.
type LegStatus struct {
	Crawl          string  `json:"crawl"`
	OS             string  `json:"os"`
	Targets        int     `json:"targets"`
	Leases         int     `json:"leases"`
	CompleteLeases int     `json:"complete_leases"`
	MergedVisits   int     `json:"merged_visits"`
	PagesPerSec    float64 `json:"pages_per_sec"`
	ETASeconds     float64 `json:"eta_seconds,omitempty"`
	Done           bool    `json:"done,omitempty"`
}

// WorkerState is one worker as the coordinator last saw it.
type WorkerState struct {
	Name string `json:"name"`
	// Lease is the currently held lease, "" when idle.
	Lease string `json:"lease,omitempty"`
	// Visited is the last heartbeat progress on that lease.
	Visited int `json:"visited,omitempty"`
	// LastSeenMS is the age of the worker's last control-plane contact.
	LastSeenMS float64 `json:"last_seen_ms"`
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, c.Status())
}

// Status assembles the fleet snapshot. Rates come from the same health
// tracker that serves /status, so the two planes cannot disagree.
func (c *Coordinator) Status() FleetStatus {
	hs := c.tracker.Status()
	now := c.lock()
	defer c.mu.Unlock()
	fs := FleetStatus{Name: c.cfg.Name, Scale: c.cfg.Scale, Seed: c.cfg.Seed}
	remaining := 0
	for _, ls := range c.b.leases {
		fs.Leases.Total++
		fs.Leases.Expiries += ls.expiries
		if ls.acquires > 1 {
			fs.Leases.Reassignments += ls.acquires - 1
		}
		switch ls.state {
		case leaseAvailable:
			fs.Leases.Available++
			remaining += ls.Targets()
		case leaseLeased:
			fs.Leases.Leased++
			if left := ls.Targets() - ls.visited; left > 0 {
				remaining += left
			}
		case leaseComplete:
			fs.Leases.Complete++
		}
	}
	fs.Done = fs.Leases.Complete == fs.Leases.Total
	// Duplicates this process observed; journaled completion records
	// additionally survive restarts in the manifest's per-lease rows.
	fs.DuplicateVisits = c.dupes
	for _, leg := range c.b.legs {
		st := LegStatus{
			Crawl: string(leg.key.crawl), OS: leg.key.os.String(),
			Targets: leg.total, Leases: len(leg.leases),
			CompleteLeases: leg.complete, MergedVisits: leg.merged,
			Done: leg.complete == len(leg.leases),
		}
		for _, cs := range hs.Crawls {
			if cs.Crawl == st.Crawl && cs.OS == st.OS {
				st.PagesPerSec = cs.PagesPerSec
				st.ETASeconds = cs.ETASeconds
				break
			}
		}
		fs.MergedVisits += leg.merged
		if !st.Done {
			fs.PagesPerSec += st.PagesPerSec
		}
		fs.Legs = append(fs.Legs, st)
	}
	if fs.PagesPerSec > 0 && remaining > 0 {
		fs.ETASeconds = float64(remaining) / fs.PagesPerSec
	}
	for _, ws := range c.b.workers {
		st := WorkerState{Name: ws.name, Lease: ws.lease, LastSeenMS: float64(now.Sub(ws.lastSeen).Milliseconds())}
		if ls := c.b.byID[ws.lease]; ls != nil {
			st.Visited = ls.visited
		}
		fs.Workers = append(fs.Workers, st)
	}
	sort.Slice(fs.Workers, func(i, j int) bool { return fs.Workers[i].Name < fs.Workers[j].Name })
	return fs
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}
