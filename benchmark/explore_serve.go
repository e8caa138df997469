package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"seedb"
	"seedb/internal/frontend"
	"seedb/internal/obs"
)

// exploreServe is the full stack over loopback HTTP with the shipped
// ServeConfig defaults (64 MiB exec cache, 256 MiB chunk-partial store,
// scheduler, observability on). One closed-loop client on one connection
// plays two roles in turn; a cycle is
//
//   - one explorer request (query class): POST /api/recommend with a
//     predicate this process has never seen — an exec-cache miss that
//     scans and fills the partial store, a stream far larger than that
//     store;
//   - four dashboard requests (companion class) from a pool of 16 that
//     fits the exec cache.
//
// The repeat class is sql + scheduler + cache + score/top-k + JSON
// encode and no scan beyond the target count; the new-query class shows
// what the cache layers cost a miss. The two roles do not run at once: on
// a 2-core host a dashboard beside a two-thread scan measured the
// scheduler (the repeat median moved by a quarter between runs of one
// commit), not the program.
type exploreServe struct {
	base
	db      *seedb.DB
	table   *seedb.Table
	gen     *queryGen
	handler *tracedHandler
	server  *httptest.Server
	client  *http.Client

	pool       []genQuery
	poolDigest []string
	dashPos    int // next pool entry
	opSeq      int

	be    *tracedBackend
	cache *tracedCache

	done []checkedOp

	respBytes int64
	respCount int64

	before serveCounters // at the start of the traced pass
	after  serveCounters // at its end
}

type serveCounters struct {
	cache seedb.CacheStats
	sched seedb.SchedulerStats
	store seedb.PartialStoreStats
}

const (
	serveTable        = "orders"
	dashboardPool     = 16
	repeatsPerExplore = 4
)

func (w *exploreServe) setup() error {
	w.table = seedb.SuperstoreTable(serveTable, w.cfg.rows, int64(w.cfg.seed))
	w.db = seedb.Open()
	if err := w.db.RegisterTable(w.table); err != nil {
		return err
	}
	srv := frontend.NewWithConfig(w.db, seedb.ServeConfig{}, nil, log.New(io.Discard, "", 0))
	w.handler = &tracedHandler{inner: srv, name: "frontend.recommend", layer: layerFrontend, path: "/api/recommend"}
	w.server = httptest.NewServer(w.handler)
	w.client = w.server.Client()
	var err error
	if w.gen, err = newQueryGen(w.table, w.cfg.seed); err != nil {
		return err
	}
	w.pool, w.poolDigest, w.dashPos, w.done = nil, nil, 0, nil
	for i := 0; i < dashboardPool; i++ {
		w.pool = append(w.pool, w.gen.next(typicalBand))
	}
	return nil
}

// post sends one recommendation request and returns the body; the
// latency covers the request up to the last body byte, not the parsing
// the harness does afterwards.
func (w *exploreServe) post(class, sqlText string) ([]byte, time.Duration, error) {
	reqBody, err := json.Marshal(map[string]string{"sql": sqlText})
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, w.server.URL+"/api/recommend", bytes.NewReader(reqBody))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	w.opSeq++
	root, _ := w.tr.root(context.Background(), fmt.Sprintf("%s/%d", wServe, w.opSeq), class)
	if root != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(root.ID, 10))
	}
	t0 := time.Now()
	resp, err := w.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t0)
	root.end()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err == nil {
		w.respBytes += int64(len(body))
		w.respCount++
	}
	return body, d, err
}

func (w *exploreServe) explore() error {
	q := w.gen.next(typicalBand)
	body, d, err := w.post(classQuery, q.SQL)
	var digest string
	if err == nil {
		digest, err = viewsDigestJSON(body)
	}
	w.rec.op(classQuery, d, err)
	if err == nil {
		w.done = append(w.done, checkedOp{q: q, digest: digest})
	}
	return err
}

// repeat sends pool entry i; its views must equal the first response the
// entry ever got.
func (w *exploreServe) repeat(i int) {
	body, d, err := w.post(classCompanion, w.pool[i].SQL)
	if err == nil {
		var digest string
		if digest, err = viewsDigestJSON(body); err == nil && digest != w.poolDigest[i] {
			err = fmt.Errorf("repeat of pool entry %d differs from its first response", i)
		}
	}
	w.rec.op(classCompanion, d, err)
}

func (w *exploreServe) first() error { return w.explore() }

func (w *exploreServe) run(stop func(int) bool) {
	if w.poolDigest == nil { // first call: the warm-up fills the dashboard's pool
		for _, q := range w.pool {
			body, d, err := w.post(classCompanion, q.SQL)
			digest := ""
			if err == nil {
				digest, err = viewsDigestJSON(body)
			}
			w.rec.op(classCompanion, d, err)
			w.poolDigest = append(w.poolDigest, digest)
		}
	}
	for n := 0; !stop(n); n++ {
		w.explore()
		for i := 0; i < repeatsPerExplore; i++ {
			w.repeat(w.dashPos % dashboardPool)
			w.dashPos++
		}
	}
}

func (w *exploreServe) counters() serveCounters {
	return serveCounters{cache: w.db.CacheStats(), sched: w.db.Service().SchedulerStats(), store: w.db.IncrementalStats()}
}

func (w *exploreServe) trace(tr *tracer) {
	w.tr = tr
	w.handler.tr.Store(tr)
	eng := w.db.Engine()
	if tr == nil {
		w.after = w.counters()
		eng.SetCache(w.cache.inner)
		w.db.SetBackend(nil)
		return
	}
	w.before = w.counters()
	w.respBytes, w.respCount = 0, 0
	w.be = &tracedBackend{inner: w.db.Backend(), tr: tr, layer: layerEngine, label: "engine"}
	w.cache = &tracedCache{inner: eng.Cache(), tr: tr}
	w.db.SetBackend(w.be)
	eng.SetCache(w.cache)
}

// verify checks sampled explorer answers against a cache-free,
// single-threaded library run over the same table.
func (w *exploreServe) verify() {
	plain := seedb.Open()
	if err := plain.RegisterTable(w.table); err != nil {
		w.rec.fail("oracle: %v", err)
		return
	}
	opts := seedb.DefaultOptions()
	opts.Parallelism = 1
	for _, i := range sampleEvery(len(w.done), w.cfg.verifyOps) {
		op := w.done[i]
		res, err := plain.RecommendSQL(context.Background(), op.q.SQL, opts)
		if err != nil {
			w.rec.fail("oracle %q: %v", op.q.SQL, err)
		} else if viewsDigest(res) != op.digest {
			w.rec.fail("HTTP views differ from the library answer: %s", op.q.SQL)
		}
	}
}

func (w *exploreServe) layers(m metrics, spans []*span) {
	engineLayers(m, spans, w.table.NumRows())
	ops := float64(max(countOps(spans, ""), 1))
	plan := w.be.captured()
	m["core.backend_calls"] = float64(w.be.calls.Load()) / ops

	c0, c1 := w.before.cache, w.after.cache
	if lookups := (c1.Hits - c0.Hits) + (c1.Misses - c0.Misses) + (c1.Shared - c0.Shared); lookups > 0 {
		m["service.cache.hit_ratio"] = float64(c1.Hits-c0.Hits) / float64(lookups)
	}
	m["service.cache.evictions"] = float64(c1.Evictions-c0.Evictions) / ops
	m["service.cache.bytes"] = float64(c1.Bytes)
	m["service.sched.coalesced"] = float64(w.after.sched.Coalesced-w.before.sched.Coalesced) / ops
	m["service.sched.shed"] = float64(w.after.sched.Shed-w.before.sched.Shed) / ops
	storeLayers(m, w.before.store, w.after.store, ops)
	if w.respCount > 0 {
		m["frontend.response_bytes"] = float64(w.respBytes) / float64(w.respCount)
	}
	if wait, err := w.queueWaitMS(); err != nil {
		w.rec.fail("reading /metrics: %v", err)
	} else {
		m["service.sched.queue_wait_ms"] = wait
	}

	// The dashboard pool once more, in process: what a repeat costs
	// without HTTP, and how much of that is outside the wrapped seams.
	tr := newTracer()
	w.trace(tr)
	sess := w.db.Service().AnonymousSession()
	var session []float64
	for i, q := range w.pool {
		root, ctx := tr.root(context.Background(), fmt.Sprintf("session/%d", i), classCompanion)
		sp, ctx := tr.start(ctx, "service.session", layerCore)
		ctx, capt := obs.WithIDCapture(ctx)
		t0 := time.Now()
		_, err := sess.RecommendSQL(ctx, q.SQL, nil)
		session = append(session, ms(time.Since(t0)))
		tr.bindRun(capt.Get(), sp)
		sp.end()
		root.end()
		if err != nil {
			w.rec.fail("in-process session call: %v", err)
		}
	}
	w.trace(nil)
	m["service.session_ms"] = median(session)
	m["core.self_ms"] = median(layerSelfMS(tr.finish(), "", layerCore))

	repeats := w.rec.window(classCompanion, 2) // the traced run's two untraced slices
	m["frontend.http_overhead_ms"] = median(repeats) - m["service.session_ms"]
	m["frontend.repeat_p99_ms"] = percentile(repeats, 99)
	m["frontend.new_p90_ms"] = percentile(w.rec.samples(phaseTraced, classQuery), 90)

	if err := commonLayers(m, w.table, w.gen, plan); err != nil {
		w.rec.fail("direct layer calls: %v", err)
	}
}

// storeLayers reports the chunk-partial store's work between two
// snapshots.
func storeLayers(m metrics, s0, s1 seedb.PartialStoreStats, ops float64) {
	delta := seedb.PartialStoreStats{RowsReused: s1.RowsReused - s0.RowsReused, RowsScanned: s1.RowsScanned - s0.RowsScanned}
	m["engine.pstore.reuse_ratio"] = delta.ReuseRatio()
	m["engine.pstore.hits"] = float64(s1.Hits-s0.Hits) / ops
	m["engine.pstore.misses"] = float64(s1.Misses-s0.Misses) / ops
	m["engine.pstore.evictions"] = float64(s1.Evictions-s0.Evictions) / ops
	m["engine.pstore.bytes"] = float64(s1.Bytes)
}

// queueWaitMS reads the scheduler's queue-wait histogram from the
// product's own /metrics endpoint and returns its mean.
func (w *exploreServe) queueWaitMS() (float64, error) {
	resp, err := w.client.Get(w.server.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	var sum, count float64
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "seedb_scheduler_queue_wait_seconds_sum "); ok {
			sum, _ = strconv.ParseFloat(strings.TrimSpace(v), 64)
		} else if v, ok := strings.CutPrefix(line, "seedb_scheduler_queue_wait_seconds_count "); ok {
			count, _ = strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	if count == 0 {
		return 0, fmt.Errorf("seedb_scheduler_queue_wait_seconds not exported")
	}
	return 1000 * sum / count, nil
}

func (w *exploreServe) close() {
	if w.server != nil {
		w.client.CloseIdleConnections()
		w.server.Close()
	}
	w.db, w.table, w.gen, w.server, w.done = nil, nil, nil, nil, nil
}
