package telemetry

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// promSeedRegistry populates a registry with every shape the renderer
// emits: labeled and unlabeled series in one family, negative gauges,
// histograms with exemplars, and label values that need escaping or
// sort differently quoted than unquoted ("a" vs "a#b" vs `a"b`).
func promSeedRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("reqs_total").Add(4)
	for i, v := range []string{"a", "a#b", `a"b`, "a,b", `back\slash`, "new\nline", "ünï"} {
		reg.Counter("reqs_total", "path", v).Add(uint64(i + 1))
		reg.Gauge("unknown_os", "os", v).Set(int64(-i))
	}
	for i, v := range []string{"a", "a#b", `a"b`} {
		h := reg.Histogram("lat_ns", "endpoint", v, "cache", "hit")
		for _, x := range []uint64{0, 3, 90, 5000} {
			h.Observe(x * uint64(i+1))
		}
		h.ObserveExemplar(1<<20+uint64(i), "4bf92f3577b34da6a3ce929d0e0e4736")
	}
	reg.Histogram("lat_ns").Observe(7)
	reg.Histogram("idle_ns") // registered, never observed
	reg.Histogram("huge_ns").Observe(math.MaxUint64)
	return reg
}

// decodeAll parses an exposition and decodes every histogram family,
// keyed by the registry key each series was rendered from.
func decodeAll(t testing.TB, raw []byte) map[string]HistogramSnapshot {
	t.Helper()
	doc, err := ParsePrometheus(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("render does not re-parse: %v\n%s", err, raw)
	}
	out := map[string]HistogramSnapshot{}
	for _, name := range doc.Names {
		if doc.Families[name].Type != "histogram" {
			continue
		}
		series, err := doc.Histograms(name)
		if err != nil {
			t.Fatalf("decoding %s: %v", name, err)
		}
		for _, s := range series {
			var pairs []string
			for k, v := range s.Labels {
				pairs = append(pairs, k, v)
			}
			out[metricKey(name, pairs)] = s.Hist
		}
	}
	return out
}

// TestPromHistograms pins Histograms as the exact inverse of
// WritePrometheus: every decoded series equals the registry snapshot it
// was rendered from, buckets and exemplars included.
func TestPromHistograms(t *testing.T) {
	reg := promSeedRegistry()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := decodeAll(t, buf.Bytes())
	want := reg.Snapshot().Histograms
	if len(got) != len(want) {
		t.Fatalf("decoded %d histogram series, registry has %d", len(got), len(want))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok || !reflect.DeepEqual(g, w) {
			t.Errorf("%s: decoded %+v, registry %+v", key, g, w)
		}
	}

	doc, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if fam, err := doc.Histograms("absent_ns"); fam != nil || err != nil {
		t.Errorf("absent family = %v, %v; want nil, nil", fam, err)
	}
	if _, err := doc.Histograms("reqs_total"); err == nil {
		t.Error("decoded a counter family as histograms")
	}

	// Well-formed expositions the renderer cannot produce do not decode.
	for name, input := range map[string]string{
		"observations above the last finite bucket": "# TYPE h histogram\nh_bucket{le=\"7\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 9\nh_count 2\n",
		"only the +Inf bucket":                      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 9\nh_count 2\n",
		"bound off the log scale":                   "# TYPE h histogram\nh_bucket{le=\"5\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 4\nh_count 1\n",
		"fractional bound":                          "# TYPE h histogram\nh_bucket{le=\"0.5\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 0\nh_count 1\n",
		"fractional count":                          "# TYPE h histogram\nh_bucket{le=\"7\"} 1.5\nh_bucket{le=\"+Inf\"} 1.5\nh_sum 4\nh_count 1.5\n",
		"exemplar without trace_id":                 "# TYPE h histogram\nh_bucket{le=\"7\"} 1 # {span=\"x\"} 4\nh_bucket{le=\"+Inf\"} 1\nh_sum 4\nh_count 1\n",
	} {
		doc, err := ParsePrometheus(strings.NewReader(input))
		if err != nil {
			t.Fatalf("%s: parser rejected the input: %v", name, err)
		}
		if _, err := doc.Histograms("h"); err == nil {
			t.Errorf("%s: decoded input the renderer cannot produce:\n%s", name, input)
		}
	}
}

// FuzzParsePrometheus feeds arbitrary bytes to the strict parser and
// the histogram decoder. Neither may panic, and any histogram that
// decodes must answer quantile queries. For the seeds — real renders —
// the decoded quantiles must equal the registry's own.
func FuzzParsePrometheus(f *testing.F) {
	seeds := map[string]map[string]HistogramSnapshot{}
	for _, reg := range []*Registry{NewRegistry(), promSeedRegistry()} {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			f.Fatal(err)
		}
		seeds[buf.String()] = reg.Snapshot().Histograms
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		doc, err := ParsePrometheus(bytes.NewReader(raw))
		if err != nil {
			return
		}
		want, isSeed := seeds[string(raw)]
		if isSeed {
			got := decodeAll(t, raw)
			keys := make([]string, 0, len(want))
			for k := range want {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				for _, q := range []float64{0.5, 0.99} {
					if g, w := got[k].Quantile(q), want[k].Quantile(q); g != w {
						t.Errorf("%s q%.2f: decoded %d, registry %d", k, q, g, w)
					}
				}
			}
			return
		}
		for _, name := range doc.Names {
			series, err := doc.Histograms(name)
			if err != nil {
				continue
			}
			for _, s := range series {
				if p50, p99 := s.Hist.Quantile(0.5), s.Hist.Quantile(0.99); p50 > p99 {
					t.Errorf("%s%v: p50 %d above p99 %d", name, s.Labels, p50, p99)
				}
			}
		}
	})
}
