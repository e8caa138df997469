package main

import (
	"context"

	"seedb"
)

// coldScan is the library path with nothing between the caller and the
// scan: plain seedb.Open() (no exec cache, no partial store), one client,
// DefaultOptions, every predicate new. Each op is a target count plus one
// shared scan over the whole table, so engine kernels and core planning
// and scoring do all the work and service, cluster and wal do none.
//
// A cycle is one selective query (10 % of the rows, the query class) and
// one broad query (50 %, the companion class): the scan cost grows with
// the rows that pass the filter, so the two are gated separately.
type coldScan struct {
	base
	db    *seedb.DB
	table *seedb.Table
	gen   *queryGen
	be    *tracedBackend
	done  []checkedOp
}

const coldTable = "events"

func (w *coldScan) setup() error {
	t, _, err := seedb.SyntheticTable(seedb.DefaultSyntheticConfig(coldTable, w.cfg.rows, int64(w.cfg.seed)))
	if err != nil {
		return err
	}
	w.db = seedb.Open()
	if err := w.db.RegisterTable(t); err != nil {
		return err
	}
	w.table, w.done = t, nil
	w.gen, err = newQueryGen(t, w.cfg.seed)
	return err
}

func (w *coldScan) recommend(class string, band float64) {
	q := w.gen.next(band)
	digest := w.libOp(class, func(ctx context.Context) (*seedb.Result, error) {
		return w.db.Recommend(ctx, coldTable, q.Predicate, seedb.DefaultOptions())
	})
	if digest != "" {
		w.done = append(w.done, checkedOp{q: q, digest: digest})
	}
}

func (w *coldScan) first() error {
	q := w.gen.next(typicalBand)
	_, err := w.db.Recommend(context.Background(), coldTable, q.Predicate, seedb.DefaultOptions())
	return err
}

func (w *coldScan) run(stop func(int) bool) {
	for n := 0; !stop(n); n++ {
		w.recommend(classQuery, typicalBand)
		w.recommend(classCompanion, broadBand)
	}
}

func (w *coldScan) trace(tr *tracer) {
	w.tr = tr
	if tr == nil {
		w.db.SetBackend(nil)
		return
	}
	w.be = &tracedBackend{inner: w.db.Backend(), tr: tr, layer: layerEngine, label: "engine"}
	w.db.SetBackend(w.be)
}

// verify re-runs sampled requests single-threaded: the engine's exact
// accumulators make the answer independent of scan parallelism, so any
// difference is a wrong answer.
func (w *coldScan) verify() {
	opts := seedb.DefaultOptions()
	opts.Parallelism = 1
	for _, i := range sampleEvery(len(w.done), w.cfg.verifyOps) {
		op := w.done[i]
		res, err := w.db.Recommend(context.Background(), coldTable, op.q.Predicate, opts)
		if err != nil {
			w.rec.fail("oracle %q: %v", op.q.SQL, err)
		} else if digestResult(res) != op.digest {
			w.rec.fail("answer differs from the Parallelism=1 run: %s", op.q.SQL)
		}
	}
}

func (w *coldScan) layers(m metrics, spans []*span) {
	engineLayers(m, spans, w.table.NumRows())
	m["core.self_ms"] = median(layerSelfMS(spans, "", layerCore))
	w.coreCounters(m, w.be.calls.Load())
	if err := commonLayers(m, w.table, w.gen, w.be.captured()); err != nil {
		w.rec.fail("direct layer calls: %v", err)
	}
}

// engineLayers reports the local backend's seam spans.
func engineLayers(m metrics, spans []*span, rows int) {
	scan := median(spanMS(spans, "engine.shared_scan"))
	m["engine.shared_scan_ms"] = scan
	m["engine.count_ms"] = median(spanMS(spans, "engine.count"))
	if scan > 0 {
		m["engine.rows_per_ms"] = float64(rows) / scan
	}
}

func (w *coldScan) close() { w.db, w.table, w.gen, w.done = nil, nil, nil, nil }
