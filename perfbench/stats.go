package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runtimeSample is a snapshot of the Go runtime counters the per-layer
// runtime metrics are differences of.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocs, bytes   uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.allocs = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindUint64 {
		out.bytes = s[3].Value.Uint64()
	}
	return out
}

// sub is the growth of the counters from b to a.
func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.allocs - b.allocs, a.bytes - b.bytes}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU, a.allocs + b.allocs, a.bytes + b.bytes}
}

// recordRuntime reports the runtime metrics from the counters' growth d
// over ops operations of the workload.
func (r *run) recordRuntime(d runtimeSample, ops int64) {
	if d.totalCPU > 0 {
		r.setLayer("runtime.gc_cpu_share", d.gcCPU/d.totalCPU, "ratio")
	}
	if ops > 0 {
		r.setLayer("runtime.allocs_per_op", float64(d.allocs)/float64(ops), "count")
		r.setLayer("runtime.alloc_bytes_per_op", float64(d.bytes)/float64(ops), "B")
	}
}
