package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"seedb"
)

// appendQuery writes beside reads: a library DB with the chunk-partial
// store (EnableIncremental) and durability (fsync per batch, checkpoint
// every 50 batches), one client cycling {Append of a seeded 600-row
// batch; RecommendSQL over one of 3 fixed predicates}. The flush policy
// is part of the workload: identical on both sides of any comparison.
//
// The table grows by 0.4 % per cycle, about a quarter over a slice of the
// window, so a query late in a slice costs a tenth more than an early
// one. Every slice therefore starts over on a fresh instance
// (runConfig.fresh): the slices do the same work, and the quietest of
// them is a statement about the host, not about the table's size. Three
// predicates are what fits: their partials take ~290 bytes per row each,
// and a fourth would push the 256 MiB store from reuse into eviction.
//
// The append class is wal log + fsync + engine append (+ a checkpoint on
// every 50th); the query class is a scan of only the appended delta when
// partial reuse works, plus the stats delta-extension.
type appendQuery struct {
	base
	db      *seedb.DB
	table   *seedb.Table
	gen     *queryGen
	dir     string
	queries []genQuery
	cycle   int
	acked   int // rows whose Append returned without error
	be      *tracedBackend

	durBefore, durAfter     seedb.DurabilityStats
	storeBefore, storeAfter seedb.PartialStoreStats
	recoveryMS              float64
	replayed                int
}

const (
	appendTable     = "orders"
	checkpointEvery = 50
	fixedQueries    = 3
)

func (w *appendQuery) setup() error {
	w.table = seedb.SuperstoreTable(appendTable, w.cfg.rows, int64(w.cfg.seed))
	w.db = seedb.Open()
	if err := w.db.RegisterTable(w.table); err != nil {
		return err
	}
	w.db.EnableIncremental(0)
	var err error
	if w.dir, err = os.MkdirTemp(w.cfg.tmpDir, "store-"); err != nil {
		return err
	}
	if _, err = w.db.EnableDurability(w.dir, 1, checkpointEvery); err != nil {
		return err
	}
	if w.gen, err = newQueryGen(w.table, w.cfg.seed); err != nil {
		return err
	}
	w.queries, w.cycle, w.acked = nil, 0, 0
	for i := 0; i < fixedQueries; i++ {
		w.queries = append(w.queries, w.gen.next(typicalBand))
	}
	return nil
}

func (w *appendQuery) query(class string, q genQuery) {
	w.libOp(class, func(ctx context.Context) (*seedb.Result, error) {
		return w.db.RecommendSQL(ctx, q.SQL, seedb.DefaultOptions())
	})
}

func (w *appendQuery) first() error {
	_, err := w.db.RecommendSQL(context.Background(), w.queries[0].SQL, seedb.DefaultOptions())
	return err
}

func (w *appendQuery) appendBatch() {
	batch := batchFrom(w.table, appendBatch, w.gen.rng.IntN)
	w.seq++
	root, ctx := w.tr.root(context.Background(), fmt.Sprintf("%s/%d", wAppend, w.seq), classCompanion)
	sp, _ := w.tr.start(ctx, "wal.append", layerWAL)
	t0 := time.Now()
	_, err := w.db.Append(appendTable, batch)
	d := time.Since(t0)
	sp.end()
	root.end()
	w.rec.op(classCompanion, d, err)
	if err == nil {
		w.acked += len(batch)
	}
}

func (w *appendQuery) run(stop func(int) bool) {
	for n := 0; !stop(n); n++ {
		w.appendBatch()
		w.query(classQuery, w.queries[w.cycle%len(w.queries)])
		w.cycle++
	}
}

func (w *appendQuery) trace(tr *tracer) {
	w.tr = tr
	dur, _ := w.db.DurabilityStats()
	if tr == nil {
		w.durAfter, w.storeAfter = dur, w.db.IncrementalStats()
		w.db.SetBackend(nil)
		return
	}
	w.durBefore, w.storeBefore = dur, w.db.IncrementalStats()
	w.be = &tracedBackend{inner: w.db.Backend(), tr: tr, layer: layerEngine, label: "engine"}
	w.db.SetBackend(w.be)
}

// verify is the durability oracle: copy the data directory while the
// store is still open (only what was flushed is on disk), recover a
// fresh DB from the copy, and require the same content hash, every acked
// row, and the same bytes for one query. It also requires the live
// (partial-reuse) answer to equal a cold scan of the same table.
func (w *appendQuery) verify() {
	ctx := context.Background()
	q := w.queries[0]
	live, err := w.db.RecommendSQL(ctx, q.SQL, seedb.DefaultOptions())
	if err != nil {
		w.rec.fail("live query: %v", err)
		return
	}
	cold := seedb.Open()
	if err := cold.RegisterTable(w.table); err != nil {
		w.rec.fail("oracle: %v", err)
		return
	}
	if res, err := cold.RecommendSQL(ctx, q.SQL, seedb.DefaultOptions()); err != nil {
		w.rec.fail("cold-scan oracle: %v", err)
	} else if digestResult(res) != digestResult(live) {
		w.rec.fail("partial-reuse answer differs from a cold scan")
	}

	copyDir, err := os.MkdirTemp(w.cfg.tmpDir, "recover-")
	if err == nil {
		err = copyFiles(w.dir, copyDir)
	}
	if err != nil {
		w.rec.fail("copying the data dir: %v", err)
		return
	}
	rdb := seedb.Open()
	if err := rdb.RegisterTable(seedb.SuperstoreTable(appendTable, w.cfg.rows, int64(w.cfg.seed))); err != nil {
		w.rec.fail("recovery: %v", err)
		return
	}
	t0 := time.Now()
	info, err := rdb.EnableDurability(copyDir, 1, checkpointEvery)
	w.recoveryMS = ms(time.Since(t0))
	if err != nil {
		w.rec.fail("recovery: %v", err)
		return
	}
	defer rdb.CloseDurability()
	w.replayed = info.ReplayedBatches
	rt, err := rdb.Table(appendTable)
	if err != nil {
		w.rec.fail("recovery: %v", err)
		return
	}
	if want := w.cfg.rows + w.acked; rt.NumRows() != want || w.table.NumRows() != want {
		w.rec.fail("rows after recovery %d, live %d, want base+acked = %d", rt.NumRows(), w.table.NumRows(), want)
	}
	hLive, err1 := w.table.ContentHash()
	hRec, err2 := rt.ContentHash()
	if err1 != nil || err2 != nil || hLive != hRec {
		w.rec.fail("content hash after recovery differs from the live table (%v %v)", err1, err2)
	}
	if res, err := rdb.RecommendSQL(ctx, q.SQL, seedb.DefaultOptions()); err != nil {
		w.rec.fail("query on the recovered DB: %v", err)
	} else if digestResult(res) != digestResult(live) {
		w.rec.fail("recovered DB answers differently from the live DB")
	}
}

func copyFiles(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		src, err := os.Open(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		dst, err := os.Create(filepath.Join(to, e.Name()))
		if err == nil {
			_, err = io.Copy(dst, src)
			if cerr := dst.Close(); err == nil {
				err = cerr
			}
		}
		src.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *appendQuery) layers(m metrics, spans []*span) {
	engineLayers(m, spans, w.table.NumRows())
	m["core.self_ms"] = median(layerSelfMS(spans, classQuery, layerCore))
	w.coreCounters(m, w.be.calls.Load())
	queries := float64(max(countOps(spans, classQuery), 1))
	storeLayers(m, w.storeBefore, w.storeAfter, queries)

	appends := spanMS(spans, "wal.append")
	if n := float64(len(appends)); n > 0 {
		total := 0.0
		for _, a := range appends {
			total += a
			m["wal.append_stall_max_ms"] = max(m["wal.append_stall_max_ms"], a)
		}
		m["wal.ingest_rows_per_s"] = n * appendBatch / (total / 1000)
		m["wal.fsyncs"] = float64(w.durAfter.Syncs-w.durBefore.Syncs) / n
	}
	m["wal.fsync_ms"] = w.durAfter.FsyncMillis
	m["wal.checkpoints"] = float64(w.durAfter.Checkpoints - w.durBefore.Checkpoints)
	m["wal.recovery_ms"], m["wal.replayed_batches"] = w.recoveryMS, float64(w.replayed)

	var err error
	m["wal.checkpoint_ms"] = timeMS(func() { err = w.db.Checkpoint() })
	if err == nil { // the log is empty now: one append's growth is its bytes
		if _, err = w.db.Append(appendTable, batchFrom(w.table, appendBatch, w.gen.rng.IntN)); err == nil {
			st, _ := w.db.DurabilityStats()
			m["wal.bytes_per_row"] = float64(st.WALBytes) / appendBatch
		}
	}
	if err != nil {
		w.rec.fail("checkpoint/append after the traced pass: %v", err)
	}
	if err := commonLayers(m, w.table, w.gen, w.be.captured()); err != nil {
		w.rec.fail("direct layer calls: %v", err)
	}
}

func (w *appendQuery) close() {
	if w.db != nil {
		w.db.CloseDurability()
		os.RemoveAll(w.dir)
	}
	w.db, w.table, w.gen = nil, nil, nil
}
