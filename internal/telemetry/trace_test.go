package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestAppendVisitRecordMatchesEncodingJSON pins the hand-rolled trace
// encoder to encoding/json's output byte for byte, including omitempty
// semantics, HTML-safe escaping, control characters, U+2028/U+2029,
// and invalid UTF-8.
func TestAppendVisitRecordMatchesEncodingJSON(t *testing.T) {
	records := []VisitRecord{
		{Domain: "plain.example", StartUS: 1696000000000000, DurNS: 123456789, Outcome: "ok"},
		{Crawl: "top100k-2020", OS: "Windows", Domain: "ebay.com",
			URL: "https://ebay.com/?a=1&b=<2>", Rank: 104,
			StartUS: 1696000000000001, DurNS: 98765, Outcome: "ok", Events: 40,
			Spans: []Span{
				{Name: "visit", StartNS: 0, DurNS: 90000000, Items: 40},
				{Name: "detect", StartNS: 90000000, DurNS: 5000000, Items: 14},
				{Name: "netlog", StartNS: 95000000, DurNS: 1000000, Err: "disk \"full\"\n"},
			}},
		{Domain: "weird.example", URL: "tab\there\rline\x01sep\u2028and\u2029done",
			StartUS: -7, DurNS: 0, Outcome: "ERR_\\BAD\xffUTF8",
			Spans: []Span{{Name: "visit", StartNS: -5, DurNS: -3}}},
		{Crawl: "top100k-2020", OS: "Windows", Domain: "traced.example",
			StartUS: 1696000000000002, DurNS: 42, Outcome: "ok",
			TraceID:  DeriveTraceID(1, "t").String(),
			SpanID:   DeriveSpanID(DeriveTraceID(1, "t"), "visit").String(),
			ParentID: DeriveSpanID(DeriveTraceID(1, "t"), "lease").String()},
		// Root span: parent_id must omit, not render empty.
		{Domain: "root.example", StartUS: 3, Outcome: "ok",
			TraceID: DeriveTraceID(2, "r").String(),
			SpanID:  DeriveSpanID(DeriveTraceID(2, "r"), "campaign").String()},
	}
	for _, rec := range records {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got := appendVisitRecord(nil, &rec)
		if string(got) != string(want)+"\n" {
			t.Errorf("encoder mismatch for %q:\n got %s\nwant %s", rec.Domain, got, want)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, TracerOptions{})

	start := time.Now()
	vt := tr.StartVisit("top100k-2020", "Windows", "ebay.com", "https://ebay.com/", 104)
	vt.Add("visit", start, 120*time.Millisecond, 40)
	vt.Add("detect", start.Add(120*time.Millisecond), 3*time.Millisecond, 14)
	vt.AddErr("netlog", start.Add(123*time.Millisecond), time.Millisecond, 0, "disk full")
	vt.End("ok", 40)
	vt.End("twice", 0) // second End is a no-op

	vt2 := tr.StartVisit("top100k-2020", "Windows", "dead.example", "https://dead.example/", 7)
	vt2.End("ERR_NAME_NOT_RESOLVED", 0)

	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Written() != 2 || tr.Dropped() != 0 {
		t.Fatalf("written=%d dropped=%d, want 2/0", tr.Written(), tr.Dropped())
	}

	recs, err := ReadTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	v := recs[0]
	if v.Domain != "ebay.com" || v.OS != "Windows" || v.Rank != 104 || v.Outcome != "ok" || v.Events != 40 {
		t.Fatalf("visit record: %+v", v)
	}
	if len(v.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(v.Spans))
	}
	if v.Spans[0].Name != "visit" || v.Spans[0].DurNS != (120*time.Millisecond).Nanoseconds() || v.Spans[0].Items != 40 {
		t.Fatalf("visit span: %+v", v.Spans[0])
	}
	// Offsets are relative to the trace's own start clock (captured in
	// StartVisit, a hair after the test's reference time).
	if off := v.Spans[1].StartNS; off <= v.Spans[0].StartNS || off > (121*time.Millisecond).Nanoseconds() {
		t.Fatalf("detect span offset = %d", off)
	}
	if v.Spans[2].Err != "disk full" {
		t.Fatalf("netlog span error: %+v", v.Spans[2])
	}
	if recs[1].Outcome != "ERR_NAME_NOT_RESOLVED" || len(recs[1].Spans) != 0 {
		t.Fatalf("failed visit: %+v", recs[1])
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	vt := tr.StartVisit("c", "os", "d", "u", 1)
	if vt != nil {
		t.Fatal("nil tracer must return nil visit")
	}
	// All nil-receiver methods must be safe.
	vt.Add("visit", time.Now(), time.Second, 1)
	vt.AddErr("x", time.Now(), 0, 0, "e")
	vt.End("ok", 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 || tr.Written() != 0 {
		t.Fatal("nil tracer counts must read zero")
	}
}

// blockingWriter stalls until released, forcing the tracer queue to
// back up.
type blockingWriter struct {
	release chan struct{}
	once    sync.Once
	buf     bytes.Buffer
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	<-w.release
	return w.buf.Write(p)
}

func TestTracerDropsWhenSaturated(t *testing.T) {
	w := &blockingWriter{release: make(chan struct{})}
	tr := NewTracer(w, TracerOptions{Buffer: 2})
	// The writer goroutine takes one record out of the queue and blocks
	// in Write; fill well past buffer+1 so some must drop.
	const visits = 10
	for i := 0; i < visits; i++ {
		vt := tr.StartVisit("c", "os", "d", "u", i)
		vt.End("ok", 0)
	}
	close(w.release)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	written, dropped := tr.Written(), tr.Dropped()
	if dropped == 0 {
		t.Fatal("saturated tracer must drop")
	}
	if written+dropped != visits {
		t.Fatalf("written %d + dropped %d != %d visits", written, dropped, visits)
	}
	recs, err := ReadTraces(&w.buf)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(recs)) != written {
		t.Fatalf("sink holds %d records, tracer reports %d written", len(recs), written)
	}
	// End after Close drops instead of panicking.
	vt := tr.StartVisit("c", "os", "late", "u", 0)
	vt.End("ok", 0)
	if tr.Dropped() != dropped+1 {
		t.Fatal("End after Close must count as a drop")
	}
}

// TestTracerDropCounterExposition pins the satellite contract: every
// drop the sink counts is mirrored into the registry's
// trace_dropped_records_total counter and shows up in the Prometheus
// exposition.
func TestTracerDropCounterExposition(t *testing.T) {
	reg := NewRegistry()
	w := &blockingWriter{release: make(chan struct{})}
	tr := NewTracer(w, TracerOptions{Buffer: 1, Registry: reg})
	for i := 0; i < 8; i++ {
		vt := tr.StartVisit("c", "os", "d", "u", i)
		vt.End("ok", 0)
	}
	close(w.release)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() == 0 {
		t.Fatal("test needs at least one drop")
	}
	if got := reg.CounterValue(MetricTraceDropped); got != tr.Dropped() {
		t.Fatalf("registry counter = %d, tracer dropped = %d", got, tr.Dropped())
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE trace_dropped_records_total counter\ntrace_dropped_records_total ") {
		t.Fatalf("exposition lacks trace_dropped_records_total:\n%s", b.String())
	}
	doc, err := ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if s := doc.Series(MetricTraceDropped); s == nil || s.Value != float64(tr.Dropped()) {
		t.Fatalf("parsed drop counter = %+v, want %d", s, tr.Dropped())
	}
}

// TestTracerEmit covers the externally-timed record path the fleet
// coordinator uses for its RPC spans.
func TestTracerEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, TracerOptions{})
	trace := DeriveTraceID(5, "emit")
	tr.Emit(&VisitRecord{
		Crawl: "c", Domain: "lease-1", StartUS: 10, DurNS: 20, Outcome: "ok",
		TraceID: trace.String(), SpanID: DeriveSpanID(trace, "renew").String(),
		Spans: []Span{{Name: "renew", DurNS: 20, Items: 3}},
	})
	tr.Emit(nil) // nil record is a no-op, not a panic
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].TraceID != trace.String() || recs[0].Spans[0].Name != "renew" {
		t.Fatalf("emitted records: %+v", recs)
	}
	// Emit after Close drops, and a nil tracer ignores Emit entirely.
	tr.Emit(&VisitRecord{Domain: "late"})
	if tr.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tr.Dropped())
	}
	var nilTr *Tracer
	nilTr.Emit(&VisitRecord{Domain: "x"})
}

func TestReadTracesLineErrors(t *testing.T) {
	_, err := ReadTraces(strings.NewReader("{\"domain\":\"a\"}\n{broken\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line 2", err)
	}
}

func TestSummarize(t *testing.T) {
	ms := func(n int64) int64 { return (time.Duration(n) * time.Millisecond).Nanoseconds() }
	visits := []VisitRecord{
		{Crawl: "c1", OS: "Windows", Domain: "a.com", DurNS: ms(100), Outcome: "ok", Events: 40,
			Spans: []Span{
				{Name: "visit", DurNS: ms(90)},
				{Name: "detect", DurNS: ms(5), Items: 14},
				{Name: "commit", DurNS: ms(1)},
			}},
		{Crawl: "c1", OS: "Linux", Domain: "b.com", DurNS: ms(50), Outcome: "ok", Events: 10,
			Spans: []Span{
				{Name: "visit", DurNS: ms(45)},
				{Name: "detect", DurNS: ms(2), Items: 0},
			}},
		{Crawl: "c2", OS: "Windows", Domain: "c.com", DurNS: ms(10), Outcome: "ERR_NAME_NOT_RESOLVED"},
	}
	s := Summarize(visits)
	if s.Visits != 3 || s.Failed != 1 || s.Events != 50 || s.Findings != 14 {
		t.Fatalf("summary: %+v", s)
	}
	if s.Outcomes["ok"] != 2 || s.Outcomes["ERR_NAME_NOT_RESOLVED"] != 1 {
		t.Fatalf("outcomes: %+v", s.Outcomes)
	}
	det := s.Stages["detect"]
	if det == nil || det.Runs != 2 || det.Items != 14 || det.BusyNS != ms(7) {
		t.Fatalf("detect stage: %+v", det)
	}
	if got := det.BusySeconds(); got != time.Duration(ms(7)).Seconds() {
		t.Fatalf("busy seconds = %v", got)
	}
	if s.ByOS["Windows"].Visits != 2 || s.ByOS["Windows"].Failed != 1 || s.ByOS["Linux"].Findings != 0 {
		t.Fatalf("by OS: %+v %+v", s.ByOS["Windows"], s.ByOS["Linux"])
	}
	if s.ByCrawl["c1"].Events != 50 || s.ByCrawl["c2"].Visits != 1 {
		t.Fatalf("by crawl: %+v %+v", s.ByCrawl["c1"], s.ByCrawl["c2"])
	}
	names := s.StageNames()
	if len(names) != 3 || names[0] != "visit" || names[1] != "detect" || names[2] != "commit" {
		t.Fatalf("stage order: %v", names)
	}
	top := SlowestVisits(visits, 2)
	if len(top) != 2 || top[0].Domain != "a.com" || top[1].Domain != "b.com" {
		t.Fatalf("slowest: %+v", top)
	}
}
