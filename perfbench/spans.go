package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the traced run's spans in memory: name, start, end and
// parent. Spans are recorded only around the benchmark's own calls into
// the program's layers. A nil tracer records nothing, so untraced code
// paths call the same methods at no cost.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []spanRec
	// busy holds layer time the program measured itself and reported
	// only as totals (the crawler's stage timings), by layer.
	busy map[string]layerStat
}

type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Busy is set on a span whose layer work has no spans of its own (a
	// crawler leg): the layer time per worker inside it. Only that much
	// of the span counts as covered by layers.
	Busy int64 `json:"busy_ns,omitempty"`
}

// span is an open span; end records it.
type span struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) start(name string, parent int64) span {
	if t == nil {
		return span{}
	}
	return span{t: t, id: t.next.Add(1), parent: parent, name: name, start: int64(time.Since(t.epoch))}
}

// end closes the span.
func (s span) end() {
	if s.t == nil {
		return
	}
	s.t.add(spanRec{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: int64(time.Since(s.t.epoch))})
}

// endBusy closes a span whose layer work inside took busy.
func (s span) endBusy(busy time.Duration) {
	if s.t == nil {
		return
	}
	s.t.add(spanRec{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: int64(time.Since(s.t.epoch)), Busy: int64(busy)})
}

// addBusy records count operations of a layer that together took total,
// as measured by the program, for the self-time table.
func (t *tracer) addBusy(layer string, count int, total time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.busy == nil {
		t.busy = map[string]layerStat{}
	}
	st := t.busy[layer]
	st.name, st.count, st.total, st.self = layer, st.count+count, st.total+total, st.self+total
	t.busy[layer] = st
}

// add records a span whose bounds the caller measured itself.
func (t *tracer) add(rec spanRec) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// at converts a wall-clock instant to the tracer's timeline.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// layerStat aggregates one span name.
type layerStat struct {
	name  string
	count int
	total time.Duration
	self  time.Duration
	// busy marks a layer timed by the program rather than by spans.
	busy bool
}

// analyze computes each span name's total and self time. A span's self
// time is its duration minus the part of it that layer work covers (see
// covered). The residual is the self time of the workload's end-to-end
// root spans (those named root) as a share of their wall time: the part
// of the end-to-end wall no layer covers. Layers the program timed
// itself follow the spans, with their whole time as self time.
func (t *tracer) analyze(root string) (stats []layerStat, residual float64) {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	var busy []layerStat
	for _, st := range t.busy {
		st.busy = true
		busy = append(busy, st)
	}
	t.mu.Unlock()
	children := map[int64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerStat{}
	var rootTotal, rootSelf time.Duration
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &layerStat{name: s.Name}
			byName[s.Name] = st
		}
		dur := time.Duration(s.End - s.Start)
		self := dur - covered(s, children[s.ID])
		st.count++
		st.total += dur
		st.self += self
		if s.Parent == 0 && s.Name == root {
			rootTotal += dur
			rootSelf += self
		}
	}
	for _, st := range byName {
		stats = append(stats, *st)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].self > stats[j].self })
	sort.Slice(busy, func(i, j int) bool { return busy[i].self > busy[j].self })
	if rootTotal > 0 {
		residual = float64(rootSelf) / float64(rootTotal)
	}
	return append(stats, busy...), residual
}

// covered is how much of s layer work covers: its own busy time if it
// carries one, plus the union of its children's intervals clipped to
// its own. A child that carries busy time counts that, not its
// interval; such children (crawler legs) run apart from their
// siblings, so their busy time adds to the union.
func covered(s spanRec, kids []spanRec) time.Duration {
	sum := s.Busy
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		if k.Busy != 0 {
			sum += min(k.Busy, k.End-k.Start)
			continue
		}
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	sum += curHi - curLo
	return min(time.Duration(sum), time.Duration(s.End-s.Start))
}

// report prints each layer's self time and the residual share, records
// residual_share as a per-layer metric, and writes the spans out.
func (t *tracer) report(r *run) error {
	stats, residual := t.analyze(r.root)
	r.setLayer("residual_share", residual, "ratio")
	fmt.Printf("layer self time (%s, seed %d):\n", r.workload, r.seed)
	fmt.Printf("  %-28s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, st := range stats {
		mark := ""
		if st.busy {
			mark = "  (busy time from the crawler's stage timings)"
		}
		fmt.Printf("  %-28s %9d %12.3f %12.3f%s\n", st.name, st.count, ms(st.total), ms(st.self), mark)
	}
	fmt.Printf("  residual_share %.4f (%s time no layer covers / %s wall)\n", residual, r.root, r.root)
	if m, ok := r.layers["trace.overhead_share"]; ok {
		fmt.Printf("  tracing overhead vs untraced pass: %+.4f\n", m.Value)
	}
	return t.write(filepath.Join(r.out, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", r.workload, r.seed)))
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
