package websim

import (
	"sync"

	"github.com/knockandtalk/knockandtalk/internal/blocklist"
	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/simnet"
)

// Fate is the load outcome assigned to a site for one crawl on one OS.
// The distribution of fates reproduces Table 1's success rates and error
// taxonomy.
type Fate int

// Fates.
const (
	FateOK Fate = iota
	FateNXDomain
	FateRefused
	FateReset
	FateBadCert
	FateEmptyResponse
	FateSSLError
)

// NetError maps the fate to the Chrome error the crawl records.
func (f Fate) NetError() simnet.NetError {
	switch f {
	case FateNXDomain:
		return simnet.ErrNameNotResolved
	case FateRefused:
		return simnet.ErrConnectionRefused
	case FateReset:
		return simnet.ErrConnectionReset
	case FateBadCert:
		return simnet.ErrCertCommonNameBad
	case FateEmptyResponse:
		return simnet.ErrEmptyResponse
	case FateSSLError:
		return simnet.ErrSSLProtocolError
	default:
		return simnet.OK
	}
}

// fateRates holds per-outcome probabilities.
type fateRates struct {
	nx, refused, reset, cert, other float64
}

// ratesFor derives fate probabilities for a (crawl, OS, category) from
// the paper's published statistics: Table 1 for top-list crawls, and the
// Table 2 per-category success rates combined with the Table 1 error mix
// for the malicious crawl (whose absolute counts are internally
// inconsistent with Table 2's population; see groundtruth.Table1).
func ratesFor(crawl groundtruth.CrawlID, os hostenv.OS, category blocklist.Category) fateRates {
	var row groundtruth.CrawlStats
	for _, r := range groundtruth.Table1() {
		if r.Crawl == crawl && r.OS == osBit(os) {
			row = r
			break
		}
	}
	if row.Total() == 0 {
		return fateRates{}
	}
	failRate := float64(row.Failed) / float64(row.Total())
	if crawl == groundtruth.CrawlMalicious {
		// Per-category success rates from Table 2.
		for _, c := range groundtruth.Table2() {
			if c.Category == string(category) {
				failRate = 1 - c.SuccessRate[osBit(os)]
				break
			}
		}
	}
	failed := float64(row.Failed)
	return fateRates{
		nx:      failRate * float64(row.NameNotResolved) / failed,
		refused: failRate * float64(row.ConnRefused) / failed,
		reset:   failRate * float64(row.ConnReset) / failed,
		cert:    failRate * float64(row.CertCNInvalid) / failed,
		other:   failRate * float64(row.Others) / failed,
	}
}

// OSes lists the vantages a crawl ran on, in the paper's table order
// (Windows, Linux, Mac); the 2021 crawl had no Mac vantage.
func OSes(crawl groundtruth.CrawlID) []hostenv.OS {
	set := groundtruth.OSesFor(crawl)
	var oses []hostenv.OS
	for _, os := range hostenv.AllOS {
		if set.Has(osBit(os)) {
			oses = append(oses, os)
		}
	}
	return oses
}

func osBit(os hostenv.OS) groundtruth.OSSet {
	switch os {
	case hostenv.Windows:
		return groundtruth.OSWindows
	case hostenv.Linux:
		return groundtruth.OSLinux
	default:
		return groundtruth.OSMac
	}
}

// fateTable precomputes the per-category fate rates for one (crawl,
// OS). ratesFor walks the groundtruth tables — which are rebuilt on
// every call — so drawing rates once per site bind dominated world
// construction; the table folds that to one computation per category
// per Build.
type fateTable struct {
	seed    uint64
	crawl   groundtruth.CrawlID
	os      hostenv.OS
	byCat   map[blocklist.Category]fateRates
	catMu   sync.Mutex
	topRate fateRates // the "" (top-list) category, kept off the map path
}

func newFateTable(seed uint64, crawl groundtruth.CrawlID, os hostenv.OS) *fateTable {
	return &fateTable{
		seed: seed, crawl: crawl, os: os,
		byCat:   make(map[blocklist.Category]fateRates),
		topRate: ratesFor(crawl, os, ""),
	}
}

// rates returns the cached fate rates for a category, computing them on
// first use. Safe for concurrent use by bind workers.
func (t *fateTable) rates(category blocklist.Category) fateRates {
	if category == "" {
		return t.topRate
	}
	t.catMu.Lock()
	defer t.catMu.Unlock()
	r, ok := t.byCat[category]
	if !ok {
		r = ratesFor(t.crawl, t.os, category)
		t.byCat[category] = r
	}
	return r
}

// fateFor assigns a deterministic fate to a domain. DNS fate is drawn
// from a domain-level hash (a dead name is dead for every OS, modulo the
// small per-OS threshold difference reflecting the crawls' different
// dates); connection-level fates are drawn per OS. Ground-truth domains
// (observed active by the paper) always load.
func (t *fateTable) fateFor(domain string, category blocklist.Category, groundTruth bool) Fate {
	if groundTruth {
		return FateOK
	}
	seed, crawl, os := t.seed, t.crawl, t.os
	r := t.rates(category)
	// DNS draw: OS-independent hash compared against the per-OS rate, so
	// the failing sets on different OSes nest rather than scatter.
	if hash01(seed, "dns", string(crawl), domain) < r.nx {
		return FateNXDomain
	}
	conn := hash01(seed, "conn", string(crawl), os.String(), domain)
	switch {
	case conn < r.refused:
		return FateRefused
	case conn < r.refused+r.reset:
		return FateReset
	case conn < r.refused+r.reset+r.cert:
		return FateBadCert
	case conn < r.refused+r.reset+r.cert+r.other:
		if hashN(seed, 2, "other", domain) == 0 {
			return FateEmptyResponse
		}
		return FateSSLError
	default:
		return FateOK
	}
}
