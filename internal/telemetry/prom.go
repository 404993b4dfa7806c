package telemetry

// Prometheus text exposition (format version 0.0.4) rendering of a
// registry snapshot. The renderer is the scrape surface of the live
// health plane: counters and gauges map one-to-one, and the fixed
// log-scale histograms render as cumulative `_bucket`/`_sum`/`_count`
// series with inclusive power-of-two upper bounds. Output is fully
// deterministic — families sorted by name, series sorted by canonical
// label string, labels sorted by key — so consecutive scrapes of an
// idle registry are byte-identical and the in-repo exposition parser
// (ParsePrometheus) can enforce ordering strictly.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry's current state in Prometheus
// text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WritePrometheus(w, r.Snapshot())
}

// promFamily collects one metric family's rendered series before
// output. For counters and gauges each series is one line; for
// histograms each label set ("instance") renders its whole
// bucket/sum/count block as one unit so instances never interleave.
type promFamily struct {
	name   string
	typ    string
	series []promRendered
}

type promRendered struct {
	sortKey string // canonical sorted k=v label string (without le)
	text    string
}

// WritePrometheus renders a snapshot in Prometheus text exposition
// format. Metric and label names are sanitized to the Prometheus
// charset; a counter, gauge, and histogram whose sanitized names
// collide is an error rather than silently merged output.
func WritePrometheus(w io.Writer, s Snapshot) error {
	fams := map[string]*promFamily{}
	family := func(name, typ string) (*promFamily, error) {
		f := fams[name]
		if f == nil {
			f = &promFamily{name: name, typ: typ}
			fams[name] = f
			return f, nil
		}
		if f.typ != typ {
			return nil, fmt.Errorf("telemetry: metric name %q used as both %s and %s", name, f.typ, typ)
		}
		return f, nil
	}

	for key, v := range s.Counters {
		name, labels := promSplit(key)
		f, err := family(name, "counter")
		if err != nil {
			return err
		}
		ls := promLabels(labels, "", "")
		f.series = append(f.series, promRendered{
			sortKey: ls,
			text:    name + ls + " " + strconv.FormatUint(v, 10) + "\n",
		})
	}
	for key, v := range s.Gauges {
		name, labels := promSplit(key)
		f, err := family(name, "gauge")
		if err != nil {
			return err
		}
		ls := promLabels(labels, "", "")
		f.series = append(f.series, promRendered{
			sortKey: ls,
			text:    name + ls + " " + strconv.FormatInt(v, 10) + "\n",
		})
	}
	for key, h := range s.Histograms {
		name, labels := promSplit(key)
		f, err := family(name, "histogram")
		if err != nil {
			return err
		}
		var b strings.Builder
		var cum uint64
		for _, bk := range h.Buckets {
			cum += bk.N
			b.WriteString(name)
			b.WriteString("_bucket")
			b.WriteString(promLabels(labels, "le", strconv.FormatUint(bk.Le, 10)))
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(cum, 10))
			if bk.ExemplarTraceID != "" {
				// OpenMetrics exemplar: the bucket's most recent traced
				// observation, linking the latency series to a trace ID.
				b.WriteString(` # {trace_id="`)
				b.WriteString(escapeLabelValue(bk.ExemplarTraceID))
				b.WriteString(`"} `)
				b.WriteString(strconv.FormatUint(bk.ExemplarValue, 10))
			}
			b.WriteByte('\n')
		}
		b.WriteString(name)
		b.WriteString("_bucket")
		b.WriteString(promLabels(labels, "le", "+Inf"))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(h.Count, 10))
		b.WriteByte('\n')
		b.WriteString(name)
		b.WriteString("_sum")
		b.WriteString(promLabels(labels, "", ""))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(h.Sum, 10))
		b.WriteByte('\n')
		b.WriteString(name)
		b.WriteString("_count")
		b.WriteString(promLabels(labels, "", ""))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(h.Count, 10))
		b.WriteByte('\n')
		f.series = append(f.series, promRendered{sortKey: promLabels(labels, "", ""), text: b.String()})
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, name := range names {
		f := fams[name]
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].sortKey < f.series[j].sortKey })
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, sr := range f.series {
			bw.WriteString(sr.text)
		}
	}
	// OpenMetrics end-of-stream marker; classic 0.0.4 scrapers treat it
	// as a comment, and the strict parser rejects content after it.
	bw.WriteString("# EOF\n")
	return bw.Flush()
}

// promSplit decomposes a registry key into a sanitized metric name and
// its label map (nil when unlabeled).
func promSplit(key string) (string, map[string]string) {
	name, labels := splitKey(key)
	return sanitizeMetricName(name), labels
}

// promLabels renders a label set as `{k="v",...}` with names
// sanitized, sorted by sanitized name, and values escaped. extraK/
// extraV append one more pair (the histogram `le` bound) in sorted
// position; an empty label set renders as the empty string.
func promLabels(labels map[string]string, extraK, extraV string) string {
	if len(labels) == 0 && extraK == "" {
		return ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)+1)
	for k, v := range labels {
		pairs = append(pairs, kv{sanitizeLabelName(k), v})
	}
	if extraK != "" {
		pairs = append(pairs, kv{extraK, extraV})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// sanitizeMetricName maps a registry metric name onto the Prometheus
// metric charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeMetricName(s string) string {
	return sanitizeName(s, true)
}

// sanitizeLabelName maps a label key onto [a-zA-Z_][a-zA-Z0-9_]*.
func sanitizeLabelName(s string) string {
	return sanitizeName(s, false)
}

func sanitizeName(s string, allowColon bool) string {
	if s == "" {
		return "_"
	}
	ok := func(i int, c byte) bool {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			return true
		case c == ':':
			return allowColon
		case c >= '0' && c <= '9':
			return i > 0
		}
		return false
	}
	clean := true
	for i := 0; i < len(s); i++ {
		if !ok(i, s[i]) {
			clean = false
			break
		}
	}
	if clean {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if ok(i, s[i]) {
			b.WriteByte(s[i])
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}
