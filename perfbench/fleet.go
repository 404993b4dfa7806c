package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/crawler"
	"github.com/knockandtalk/knockandtalk/internal/fleet"
	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/websim"
)

// The fleet is crawled at a small fixed size: one crawl, every OS it
// covers. It is not a workload of its own (see README.md); it gives
// the fleet's per-layer metrics and checks that a fleet's stores equal
// a single-process crawl's.
const fleetScale = 0.01

var fleetCrawls = []groundtruth.CrawlID{groundtruth.CrawlTop2021}

// rpcRecorder wraps the coordinator's handler and times each lease RPC
// from the moment the handler is entered until it returns.
type rpcRecorder struct {
	mu     sync.Mutex
	rpcs   map[string][]time.Duration
	failed int
	leases int
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// count is the number of lease RPCs answered.
func (rr *rpcRecorder) count() int {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	n := 0
	for _, ds := range rr.rpcs {
		n += len(ds)
	}
	return n
}

func (rr *rpcRecorder) wrap(h http.Handler) http.Handler {
	ops := map[string]string{
		"/v1/lease/acquire":  "fleet.acquire",
		"/v1/lease/renew":    "fleet.renew",
		"/v1/lease/complete": "fleet.complete",
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		op, ok := ops[req.URL.Path]
		if !ok {
			h.ServeHTTP(w, req)
			return
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		h.ServeHTTP(sw, req)
		d := time.Since(t0)
		rr.mu.Lock()
		defer rr.mu.Unlock()
		rr.rpcs[op] = append(rr.rpcs[op], d)
		if sw.code >= 300 {
			rr.failed++
		} else if op == "fleet.complete" {
			rr.leases++
		}
	})
}

// fleetResult is one fleet campaign's outcome.
type fleetResult struct {
	visits  int
	stores  map[groundtruth.CrawlID][32]byte
	rec     *rpcRecorder
	shardMB float64
	outputs time.Duration
}

// runFleet crawls fleetCrawls through an in-process fleet coordinator
// served over loopback to one worker with nproc browsers, and fails the
// run unless each store equals, byte for byte, the store
// crawler.RunWorld builds over the same legs in one process.
func runFleet(r *run) (*fleetResult, error) {
	dir := filepath.Join(r.out, fmt.Sprintf("fleet-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c, err := fleet.New(fleet.Config{OutDir: dir, Crawls: fleetCrawls, Scale: fleetScale, Seed: r.seed})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	res := &fleetResult{rec: &rpcRecorder{rpcs: map[string][]time.Duration{}}, stores: map[groundtruth.CrawlID][32]byte{}}
	srv := &http.Server{Handler: res.rec.wrap(c.Handler())}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	sum, err := fleet.RunWorker(ctx, fleet.WorkerConfig{
		Coordinator: "http://" + ln.Addr().String(), Name: "perfbench", Workers: r.nproc,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet worker: %w", err)
	}
	select {
	case <-c.Done():
	default:
		return nil, errors.New("fleet worker returned before the campaign completed")
	}
	t0 := time.Now()
	m, err := c.WriteOutputs()
	if err != nil {
		return nil, err
	}
	res.outputs = time.Since(t0)
	res.visits = sum.Visits
	res.shardMB = float64(sum.UploadBytes) / 1e6
	r.attempted += int64(res.visits) + int64(res.rec.count())
	r.failed += int64(res.rec.failed)
	for _, cr := range fleetCrawls {
		raw, err := os.ReadFile(m.Stores[string(cr)])
		if err != nil {
			return nil, err
		}
		res.stores[cr] = sha256.Sum256(raw)
	}
	return res, checkFleetStores(r, res)
}

// checkFleetStores crawls the fleet's legs with crawler.RunWorld and
// compares each saved store with the fleet's.
func checkFleetStores(r *run, res *fleetResult) error {
	for _, cr := range fleetCrawls {
		st := store.New()
		for _, lg := range campaignLegs() {
			if lg.crawl != cr {
				continue
			}
			w, err := websim.Build(lg.crawl, lg.os, fleetScale, r.seed)
			if err != nil {
				return err
			}
			if _, err := crawler.RunWorld(crawler.Config{
				Crawl: lg.crawl, OS: lg.os, Scale: fleetScale, Seed: r.seed, Workers: r.nproc,
			}, w, st); err != nil {
				return err
			}
		}
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			return err
		}
		want := sha256.Sum256(buf.Bytes())
		r.check(res.stores[cr] == want, "fleet store %s %x differs from the single-process crawl's %x", cr, res.stores[cr], want)
	}
	return nil
}

func recordFleetLayers(set func(string, float64, string), res *fleetResult) {
	var acquire, complete []float64
	for _, d := range res.rec.rpcs["fleet.acquire"] {
		acquire = append(acquire, us(d))
	}
	for _, d := range res.rec.rpcs["fleet.complete"] {
		complete = append(complete, us(d))
	}
	set("fleet.acquire_us", mean(acquire), "us")
	set("fleet.complete_us", mean(complete), "us")
	set("fleet.rpcs", float64(res.rec.count()), "count")
	set("fleet.leases", float64(res.rec.leases), "count")
	set("fleet.shard_mb", res.shardMB, "MB")
	set("fleet.outputs_ms", ms(res.outputs), "ms")
}
