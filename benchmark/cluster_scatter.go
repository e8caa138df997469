package main

import (
	"context"
	"io"
	"log"
	"net/http/httptest"
	"time"

	"seedb"
	"seedb/internal/frontend"
)

// clusterScatter runs the same table on a coordinator and two loopback
// HTTP workers (frontend servers with the default ServeConfig, in this
// process). Coordinator A is work-partitioned (DB.ShardRemote: every
// worker holds a full replica, each scan is split across them);
// coordinator B is data-partitioned (DB.PlaceRemote, rf=2, default
// PlacementChunks: workers hold shipped fragments, each scan becomes one
// RPC per placement). One client; a cycle is two sharded queries (query
// class) and one placed query (companion class), predicates never
// repeating.
//
// Wire encode/decode of engine.Partial JSON, RPC count, worker exec and
// gather/merge dominate, and differ by an order of magnitude between the
// two backends.
type clusterScatter struct {
	base
	table   *seedb.Table
	workers []*clusterWorker
	sharded *seedb.DB
	placed  *seedb.DB
	gen     *queryGen
	done    []checkedOp

	shardedBackend      *seedb.ClusterBackend
	placedBackend       *seedb.PlacementBackend
	shardedBE, placedBE *tracedBackend
	bootstrapS          float64
	before, after       clusterCounters
}

type clusterWorker struct {
	handler *tracedHandler
	server  *httptest.Server
}

type clusterCounters struct{ shardCalls, rangeCalls int64 }

const (
	clusterTable   = "orders"
	clusterTimeout = 30 * time.Second
)

func (w *clusterScatter) setup() error {
	w.table = seedb.SuperstoreTable(clusterTable, w.cfg.rows, int64(w.cfg.seed))
	var urls []string
	w.workers = nil
	for i := 0; i < 2; i++ {
		db := seedb.Open()
		if err := db.RegisterTable(w.table.Clone(clusterTable)); err != nil {
			return err
		}
		srv := frontend.NewWithConfig(db, seedb.ServeConfig{}, nil, log.New(io.Discard, "", 0))
		h := &tracedHandler{inner: srv, name: "cluster.worker_exec", layer: "cluster.worker", path: "/api/shard/exec"}
		cw := &clusterWorker{handler: h, server: httptest.NewServer(h)}
		w.workers = append(w.workers, cw)
		urls = append(urls, cw.server.URL)
	}
	w.sharded, w.placed = seedb.Open(), seedb.Open()
	for _, db := range []*seedb.DB{w.sharded, w.placed} {
		if err := db.RegisterTable(w.table); err != nil {
			return err
		}
	}
	w.shardedBackend = w.sharded.ShardRemote(urls, clusterTimeout, seedb.ClusterConfig{})
	t0 := time.Now()
	var err error
	if w.placedBackend, err = w.placed.PlaceRemote(context.Background(), urls, clusterTimeout, seedb.PlacementConfig{Replication: 2}); err != nil {
		return err
	}
	w.bootstrapS = time.Since(t0).Seconds()
	w.gen, err = newQueryGen(w.table, w.cfg.seed)
	w.done = nil
	return err
}

func (w *clusterScatter) recommend(class string, db *seedb.DB) {
	q := w.gen.next(typicalBand)
	digest := w.libOp(class, func(ctx context.Context) (*seedb.Result, error) {
		return db.RecommendSQL(ctx, q.SQL, seedb.DefaultOptions())
	})
	if digest != "" {
		w.done = append(w.done, checkedOp{q: q, digest: digest})
	}
}

func (w *clusterScatter) first() error {
	_, err := w.sharded.RecommendSQL(context.Background(), w.gen.next(typicalBand).SQL, seedb.DefaultOptions())
	return err
}

func (w *clusterScatter) run(stop func(int) bool) {
	for n := 0; !stop(n); n++ {
		w.recommend(classQuery, w.sharded)
		w.recommend(classQuery, w.sharded)
		w.recommend(classCompanion, w.placed)
	}
}

func (w *clusterScatter) counters() clusterCounters {
	return clusterCounters{
		shardCalls: w.shardedBackend.Counters().ShardCalls,
		rangeCalls: w.placedBackend.Counters().RangeCalls,
	}
}

func (w *clusterScatter) trace(tr *tracer) {
	w.tr = tr
	for _, cw := range w.workers {
		cw.handler.tr.Store(tr)
	}
	if tr == nil {
		w.after = w.counters()
		w.sharded.SetBackend(w.shardedBackend)
		w.placed.SetBackend(w.placedBackend)
		return
	}
	w.shardedBE = &tracedBackend{inner: w.shardedBackend, tr: tr, layer: layerCluster, label: "cluster.sharded"}
	w.placedBE = &tracedBackend{inner: w.placedBackend, tr: tr, layer: layerCluster, label: "cluster.placed"}
	w.before = w.counters()
	w.sharded.SetBackend(w.shardedBE)
	w.placed.SetBackend(w.placedBE)
}

// verify holds sampled answers of both coordinators against the solo
// local result: scatter changes where scans run, never what comes back.
func (w *clusterScatter) verify() {
	solo := seedb.Open()
	if err := solo.RegisterTable(w.table); err != nil {
		w.rec.fail("oracle: %v", err)
		return
	}
	for _, i := range sampleEvery(len(w.done), w.cfg.verifyOps) {
		op := w.done[i]
		res, err := solo.RecommendSQL(context.Background(), op.q.SQL, seedb.DefaultOptions())
		if err != nil {
			w.rec.fail("oracle %q: %v", op.q.SQL, err)
		} else if digestResult(res) != op.digest {
			w.rec.fail("scattered answer differs from the solo local one: %s", op.q.SQL)
		}
	}
	// Any retry, failover or replica mismatch means the run measured the
	// degraded path, not the scatter.
	if c := w.shardedBackend.Counters(); c.Retries+c.Failovers+c.Mismatches > 0 {
		w.rec.fail("sharded backend degraded: %+v", c)
	}
	if c := w.placedBackend.Counters(); c.Retries+c.Failovers+c.Mismatches > 0 {
		w.rec.fail("placement backend degraded: retries %d failovers %d mismatches %d", c.Retries, c.Failovers, c.Mismatches)
	}
}

func (w *clusterScatter) layers(m metrics, spans []*span) {
	m["core.self_ms"] = median(layerSelfMS(spans, "", layerCore))
	w.coreCounters(m, w.shardedBE.calls.Load()+w.placedBE.calls.Load())
	m["cluster.worker_exec_ms"] = median(spanMS(spans, "cluster.worker_exec"))
	m["cluster.gather_ms"] = median(layerSelfMS(spans, "", layerCluster))
	m["cluster.place_bootstrap_s"] = w.bootstrapS
	if n := countOps(spans, classQuery); n > 0 {
		m["cluster.sharded.rpc_per_op"] = float64(w.after.shardCalls-w.before.shardCalls) / float64(n)
	}
	if n := countOps(spans, classCompanion); n > 0 {
		m["cluster.placed.rpc_per_op"] = float64(w.after.rangeCalls-w.before.rangeCalls) / float64(n)
	}
	sc, pc := w.shardedBackend.Counters(), w.placedBackend.Counters()
	m["cluster.retries"] = float64(sc.Retries + pc.Retries)
	m["cluster.failovers"] = float64(sc.Failovers + pc.Failovers)
	m["cluster.mismatches"] = float64(sc.Mismatches + pc.Mismatches)
	if err := commonLayers(m, w.table, w.gen, w.shardedBE.captured()); err != nil {
		w.rec.fail("direct layer calls: %v", err)
	}
}

func (w *clusterScatter) close() {
	for _, cw := range w.workers {
		cw.server.Close()
	}
	w.workers, w.sharded, w.placed, w.table, w.gen, w.done = nil, nil, nil, nil, nil, nil
}
