// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed time on inputs generated
// from a seed, checks the program's outputs, and prints every metric
// with its unit. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the
// run also records layer spans around the benchmark's own calls into
// each layer and prints the per-layer set instead. See README.md for
// the workloads, metrics and the layer-to-metric map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// The end-to-end metrics every workload reports (see README.md for what
// each means on each workload).
const (
	mSetup      = "setup_s"
	mThroughput = "throughput_per_s"
	mP50        = "latency_p50_ms"
	mRSS        = "peak_rss_mb"
)

// run carries one benchmark invocation's settings and findings.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	out      string
	nproc    int

	attempted, failed int64
	problems          []string

	e2e    map[string]metric
	layers map[string]metric
	tr     *tracer
	// root names the workload's end-to-end span; residual_share is
	// measured against it.
	root string
}

// check records an output-check failure; any failure fails the run.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) setE2E(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }

// setLayer records a per-layer metric from the workload's own traced
// pass.
func (r *run) setLayer(name string, v float64, unit string) { r.layers[name] = metric{v, unit} }

// fillLayer records a per-layer metric from a probe unless the
// workload's own pass already measured it.
func (r *run) fillLayer(name string, v float64, unit string) {
	if _, ok := r.layers[name]; !ok {
		r.layers[name] = metric{v, unit}
	}
}

// workload is one benchmark workload and the name of its end-to-end
// span.
type workload struct {
	run  func(*run) error
	root string
}

var workloads = map[string]workload{
	"campaign":    {runCampaign, "e2e.campaign"},
	"serve-read":  {func(r *run) error { return runServe(r, false) }, "e2e.request"},
	"serve-mixed": {func(r *run) error { return runServe(r, true) }, "e2e.request"},
}

func main() {
	name := flag.String("workload", "", "workload to run: campaign, serve-read, serve-mixed")
	seed := flag.Uint64("seed", 1, "input seed; the same seed generates the same inputs")
	seconds := flag.Int("seconds", 30, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 records layer spans and prints the per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for span files and result records")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	r := &run{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, out: *out, nproc: nproc,
		e2e: map[string]metric{}, layers: map[string]metric{}, root: wl.root,
	}
	if r.traced {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		fatal(err)
	}
	if err := wl.run(r); err != nil {
		fatal(err)
	}

	metrics := r.e2e
	if r.traced {
		metrics = r.layers
		if err := r.tr.report(r); err != nil {
			fatal(err)
		}
	}
	res := result{
		Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics,
	}
	if r.attempted < 1 {
		r.problems = append(r.problems, "no operation attempted")
		res.Correct = false
	}
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	printMetrics(metrics)
	if err := writeRecord(r, res); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// env describes the machine and build a result was measured on.
type env struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Workload   string `json:"workload"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
}

func currentEnv(r *run) env {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return env{
		CPU: cpuModel(), NProc: r.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Seed: r.seed,
		Workload: r.workload, Trace: r.traced, Seconds: int(r.seconds / time.Second),
	}
}

// writeRecord prints the result record (environment plus metrics) and
// keeps a copy under the output directory.
func writeRecord(r *run, res result) error {
	rec := struct {
		Env    env    `json:"env"`
		Result result `json:"result"`
	}{currentEnv(r), res}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println("record:", string(raw))
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.seed, boolInt(r.traced))
	return os.WriteFile(filepath.Join(r.out, name), append(raw, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// recordPeakRSS reports the process's peak resident set so far. The
// campaign workload calls it when its measured campaigns end, before
// the output checks and probes, which crawl other inputs.
func (r *run) recordPeakRSS() { r.setE2E(mRSS, peakRSSMB(), "MB") }

// resetPeakRSS sets the process's peak resident set (VmHWM) to its
// current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
