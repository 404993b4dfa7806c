package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

func sampleVisits() []telemetry.VisitRecord {
	ms := func(n int64) int64 { return (time.Duration(n) * time.Millisecond).Nanoseconds() }
	return []telemetry.VisitRecord{
		{Crawl: "top100k-2020", OS: "Windows", Domain: "slow.example", DurNS: ms(200), Outcome: "ok", Events: 40,
			Spans: []telemetry.Span{
				{Name: "visit", StartNS: 0, DurNS: ms(180), Items: 40},
				{Name: "detect", StartNS: ms(180), DurNS: ms(15), Items: 14},
				{Name: "commit", StartNS: ms(195), DurNS: ms(5)},
			}},
		{Crawl: "top100k-2020", OS: "Linux", Domain: "fast.example", DurNS: ms(50), Outcome: "ok", Events: 10,
			Spans: []telemetry.Span{
				{Name: "visit", StartNS: 0, DurNS: ms(48), Items: 10},
				{Name: "detect", StartNS: ms(48), DurNS: ms(2)},
			}},
		{Crawl: "malicious", OS: "Windows", Domain: "dead.example", DurNS: ms(10), Outcome: "ERR_NAME_NOT_RESOLVED"},
	}
}

func TestPrintSummary(t *testing.T) {
	var b strings.Builder
	printSummary(&b, sampleVisits())
	out := b.String()
	for _, want := range []string{
		"3 visits (1 failed), 50 events, 14 findings",
		"ERR_NAME_NOT_RESOLVED",
		"visit", "detect", "commit", "p99",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}
	// Canonical stage order: visit before detect before commit.
	if vi, di := strings.Index(out, "visit"), strings.Index(out, "detect"); vi > di {
		t.Errorf("stage order wrong:\n%s", out)
	}
}

func TestPrintBusyMatchesMetricsRendering(t *testing.T) {
	var b strings.Builder
	printBusy(&b, sampleVisits())
	// detect busy = 15ms + 2ms, in the integer nanoseconds
	// pipeline_stage_ns_sum carries.
	want := fmt.Sprintf("detect     %d\n", 17*time.Millisecond)
	if !strings.Contains(b.String(), want) {
		t.Errorf("busy output missing %q:\n%s", want, b.String())
	}
}

func TestPrintSlowest(t *testing.T) {
	var b strings.Builder
	printSlowest(&b, sampleVisits(), 2)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("top 2 printed %d lines:\n%s", len(lines), b.String())
	}
	if !strings.Contains(lines[0], "slow.example") || !strings.Contains(lines[1], "fast.example") {
		t.Errorf("slowest order wrong:\n%s", b.String())
	}
}

func TestPrintWaterfalls(t *testing.T) {
	var b strings.Builder
	if !printWaterfalls(&b, sampleVisits(), "slow.example") {
		t.Fatal("waterfall found no visits")
	}
	out := b.String()
	for _, want := range []string{"slow.example", "visit", "detect", "commit", "█"} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}
	if printWaterfalls(&b, sampleVisits(), "nosuch.example") {
		t.Error("waterfall claimed to find an absent domain")
	}
}

func TestPrintGroups(t *testing.T) {
	var b strings.Builder
	printGroups(&b, sampleVisits(), "os")
	if !strings.Contains(b.String(), "Windows") || !strings.Contains(b.String(), "Linux") {
		t.Errorf("by-os rollup:\n%s", b.String())
	}
	b.Reset()
	printGroups(&b, sampleVisits(), "crawl")
	if !strings.Contains(b.String(), "malicious") {
		t.Errorf("by-crawl rollup:\n%s", b.String())
	}
}
