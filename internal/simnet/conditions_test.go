package simnet

import (
	"fmt"
	"net/netip"
	"testing"
	"time"
)

// TestNominalMatchesLegacyFormula pins the nominal chain to the old
// LatencyModel's arithmetic: class base plus the byte-compatible
// per-destination jitter hash, and untouched package defaults for
// everything else. Breaking this breaks golden byte-parity.
func TestNominalMatchesLegacyFormula(t *testing.T) {
	c := Nominal(VantageCampus)
	cases := []struct {
		dst        netip.Addr
		base, jmax time.Duration
	}{
		{netip.MustParseAddr("127.0.0.1"), 150 * time.Microsecond, 250 * time.Microsecond},
		{netip.MustParseAddr("192.168.1.20"), time.Millisecond, 4 * time.Millisecond},
		{netip.MustParseAddr("169.254.3.3"), time.Millisecond, 2 * time.Millisecond},
		{netip.MustParseAddr("203.0.113.50"), VantageCampus.BaseRTT, VantageCampus.Jitter},
	}
	for _, tc := range cases {
		p := c.Path(99, Flow{Vantage: c.FlowVantage, Dst: tc.dst, Port: 443})
		want := tc.base + flowJitter(99, VantageCampus.Name, tc.dst, tc.jmax)
		if p.RTT != want {
			t.Errorf("%v: RTT = %v, want %v", tc.dst, p.RTT, want)
		}
		if p.ConnectTimeout != ConnectTimeout || p.DNSResolve != ResolutionDelay ||
			p.DNSFailure != FailureDelay || p.Drop || p.DNSTimeout || p.BytesPerSec != 0 {
			t.Errorf("%v: nominal path carries impairment: %+v", tc.dst, p)
		}
	}
}

// TestStageScopeAndOrder checks scope gating and chain semantics: a
// public-scoped loss stage never touches loopback, the tightest
// bandwidth cap wins, and the connect-timeout policy overrides the
// package default.
func TestStageScopeAndOrder(t *testing.T) {
	c := &Conditions{
		Name: "test", FlowVantage: "test",
		Stages: []Stage{
			Loss{Rate: 1, Scope: ScopePublic},
			Bandwidth{BytesPerSec: 500_000, Scope: ScopeAll},
			Bandwidth{BytesPerSec: 100_000, Scope: ScopeAll},
			Bandwidth{BytesPerSec: 900_000, Scope: ScopeAll},
			ConnectTimeoutPolicy{Timeout: 2 * time.Second},
		},
	}
	pub := c.Path(1, Flow{Vantage: "test", Dst: netip.MustParseAddr("203.0.113.1"), Port: 80})
	if !pub.Drop {
		t.Error("public flow survived a rate-1 loss stage")
	}
	loop := c.Path(1, Flow{Vantage: "test", Dst: netip.MustParseAddr("127.0.0.1"), Port: 80})
	if loop.Drop {
		t.Error("loopback flow dropped by a public-scoped loss stage")
	}
	if pub.BytesPerSec != 100_000 {
		t.Errorf("BytesPerSec = %d, want tightest cap 100000", pub.BytesPerSec)
	}
	if pub.ConnectTimeout != 2*time.Second {
		t.Errorf("ConnectTimeout = %v, want policy override 2s", pub.ConnectTimeout)
	}
}

// TestLossDeterministicAndRateBounded: the loss draw is a pure function
// of (seed, flow) — identical across calls, different across seeds —
// and the empirical drop rate tracks the configured rate.
func TestLossDeterministicAndRateBounded(t *testing.T) {
	c, err := ProfileByName("satellite")
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	drops := 0
	for i := 0; i < n; i++ {
		dst := netip.AddrFrom4([4]byte{203, 0, byte(i >> 8), byte(i)})
		f := Flow{Vantage: c.FlowVantage, Dst: dst, Port: uint16(8000 + i%100)}
		a := c.Path(42, f)
		b := c.Path(42, f)
		if a != b {
			t.Fatalf("flow %d: non-deterministic path: %+v vs %+v", i, a, b)
		}
		if a.Drop {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < 0.05 || rate > 0.14 {
		t.Errorf("empirical drop rate %.3f far from configured 0.09", rate)
	}
	diff := 0
	for i := 0; i < n; i++ {
		dst := netip.AddrFrom4([4]byte{203, 0, byte(i >> 8), byte(i)})
		f := Flow{Vantage: c.FlowVantage, Dst: dst, Port: uint16(8000 + i%100)}
		if c.Path(42, f).Drop != c.Path(43, f).Drop {
			diff++
		}
	}
	if diff == 0 {
		t.Error("changing the seed changed no loss outcomes")
	}
}

// TestDNSTimeoutKeyedOnHost: resolver timeouts are drawn per host name —
// stable across repeated lookups and across destination details, with
// the empirical rate near the configured one.
func TestDNSTimeoutKeyedOnHost(t *testing.T) {
	c, err := ProfileByName("satellite")
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	timeouts := 0
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("site-%d.example", i)
		f := Flow{Vantage: c.FlowVantage, Host: host}
		a := c.Path(7, f)
		if a.DNSTimeout != c.Path(7, f).DNSTimeout {
			t.Fatalf("host %s: non-deterministic DNS timeout", host)
		}
		if a.DNSTimeout {
			timeouts++
			if a.DNSTimeoutAfter != 6*time.Second {
				t.Errorf("DNSTimeoutAfter = %v, want profile's 6s", a.DNSTimeoutAfter)
			}
		}
	}
	rate := float64(timeouts) / n
	if rate < 0.025 || rate > 0.08 {
		t.Errorf("empirical DNS-timeout rate %.3f far from configured 0.05", rate)
	}
	// Lookups with no host (IP-literal navigation) never time out.
	if c.Path(7, Flow{Vantage: c.FlowVantage, Dst: netip.MustParseAddr("203.0.113.9")}).DNSTimeout {
		t.Error("hostless flow drew a DNS timeout")
	}
}

// TestProfileRegistry walks every named profile through ProfileByName.
func TestProfileRegistry(t *testing.T) {
	for _, name := range []string{"", "nominal"} {
		c, err := ProfileByName(name)
		if err != nil || c != nil {
			t.Errorf("ProfileByName(%q) = %v, %v; want nil, nil", name, c, err)
		}
	}
	for _, name := range ProfileNames() {
		if name == "nominal" {
			continue
		}
		c, err := ProfileByName(name)
		if err != nil || c == nil {
			t.Fatalf("ProfileByName(%q): %v, %v", name, c, err)
		}
		if c.Name != name {
			t.Errorf("profile %q carries Name %q", name, c.Name)
		}
	}
	if _, err := ProfileByName("adsl-1999"); err == nil {
		t.Error("unknown profile name accepted")
	}
}

// TestTransferDelayShaping: an unshaped path keeps the legacy body-read
// formula (capped at 3s); a shaped one adds serialization time on top.
func TestTransferDelayShaping(t *testing.T) {
	p := Path{RTT: 40 * time.Millisecond}
	legacy := p.RTT/2 + time.Duration(6000/1200)*p.RTT/10
	if got := p.TransferDelay(6000); got != legacy {
		t.Errorf("unshaped TransferDelay = %v, want %v", got, legacy)
	}
	if got := p.TransferDelay(100 << 20); got != 3*time.Second {
		t.Errorf("unshaped cap = %v, want 3s", got)
	}
	p.BytesPerSec = 50_000
	want := legacy + time.Duration(6000)*time.Second/50_000
	if got := p.TransferDelay(6000); got != want {
		t.Errorf("shaped TransferDelay = %v, want %v", got, want)
	}
}
