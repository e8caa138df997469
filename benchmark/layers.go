package main

import (
	"bytes"
	"context"
	"encoding/json"
	"time"

	"seedb"
	"seedb/internal/binpack"
	"seedb/internal/cluster"
	"seedb/internal/distance"
	"seedb/internal/engine"
	"seedb/internal/sql"
	"seedb/internal/stats"
)

// Direct layer calls: each times one exported function of one layer on
// the workload's own table, outside any request. They run after the
// traced pass on private catalogs, executors and collectors, so they
// neither see nor disturb the caches of the system under test.

const (
	layerReps = 5 // timed repetitions per direct call; the median is reported
	// appendBatch is the rows per append batch, everywhere: ISSUE 11's
	// 2000 rows on a 500k-row base, scaled with append_query's base so a
	// cycle still grows the table by 0.4 %.
	appendBatch = 600
)

func timeMS(f func()) float64 {
	t0 := time.Now()
	f()
	return ms(time.Since(t0))
}

func medianOf(n int, f func() float64) float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = f()
	}
	return median(v)
}

// batchFrom builds an append batch out of existing rows of t, picked by
// the seeded generator's RNG: valid for any schema, and deterministic.
func batchFrom(t *seedb.Table, rows int, pick func(n int) int) [][]seedb.Value {
	out := make([][]seedb.Value, rows)
	n := t.NumRows()
	for i := range out {
		out[i] = t.Row(pick(n))
	}
	return out
}

// commonLayers fills the per-layer metrics every workload can measure on
// its table: sql, stats, core operators, engine partials/append/snapshot,
// the cluster wire format, distance and binpack.
func commonLayers(m metrics, t *seedb.Table, gen *queryGen, plan *capturedPlan) error {
	ctx := context.Background()
	cat := engine.NewCatalog()
	if err := cat.Register(t); err != nil {
		return err
	}
	ex := engine.NewExecutor(cat)
	batch := batchFrom(t, appendBatch, gen.rng.IntN)

	// sql
	var parse []float64
	for i := 0; i < 16; i++ {
		src := gen.next(typicalBand).SQL
		t0 := time.Now()
		if _, _, _, err := sql.AnalystQueryExplore(src, cat); err != nil {
			return err
		}
		parse = append(parse, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["sql.parse_us"] = median(parse)

	// stats: one cold collection (a fresh collector per repetition would
	// triple the cost of the slowest direct call for no extra digits).
	var dims []string
	for _, d := range gen.dims {
		dims = append(dims, d.name)
	}
	col := stats.NewCollector()
	m["stats.collect_ms"] = timeMS(func() { col.Stats(t) })
	var cerr error
	m["stats.clusters_ms"] = timeMS(func() { _, cerr = col.CorrelationClusters(t, dims, 0.95) })
	if cerr != nil {
		return cerr
	}
	clone := t.Clone(t.Name())
	col.Stats(clone)
	if _, err := clone.Append(batch); err != nil {
		return err
	}
	m["stats.extend_ms"] = timeMS(func() { col.Stats(clone) })

	// core: one operator at a time on a cache-free DB over the same table.
	plain := seedb.Open()
	if err := plain.RegisterTable(t); err != nil {
		return err
	}
	probe := gen.next(typicalBand)
	var sample *seedb.Result
	for _, v := range []struct {
		metric string
		mod    func(o *seedb.Options)
	}{
		{"core.op.deviation.ms", func(o *seedb.Options) {}},
		{"core.op.similarity.ms", func(o *seedb.Options) {
			o.Operator, o.ProbeDimension, o.ProbeFunc = "similarity", dims[0], "count"
		}},
		{"core.op.outlier.ms", func(o *seedb.Options) { o.Operator = "outlier" }},
		{"core.op.typical.ms", func(o *seedb.Options) { o.Operator = "typical" }},
		{"core.op.trend.ms", func(o *seedb.Options) { o.Operator = "trend" }},
		{"core.phased8.ms", func(o *seedb.Options) { o.Phases = 8 }},
	} {
		opts := seedb.DefaultOptions()
		v.mod(&opts)
		var err error
		call := func() {
			var res *seedb.Result
			if res, err = plain.Recommend(ctx, t.Name(), probe.Predicate, opts); err == nil && sample == nil {
				sample = res
			}
		}
		call() // pays the metadata collection once
		m[v.metric] = medianOf(4, func() float64 { return timeMS(call) })
		if err != nil {
			return err
		}
	}

	// distance + binpack at the sizes the plan really has
	if sample != nil && len(sample.Recommendations) > 0 {
		d := sample.Recommendations[0].Data
		const loops = 1000
		t0 := time.Now()
		for i := 0; i < loops; i++ {
			if _, err := (distance.EMD{}).Distance(d.Target, d.Comparison); err != nil {
				return err
			}
		}
		m["distance.emd_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / loops
	}
	var items []binpack.Item
	for _, d := range gen.dims {
		items = append(items, binpack.Item{ID: d.name, Weight: float64(len(d.dict))})
	}
	var perr error
	m["binpack.pack_us"] = 1000 * medianOf(layerReps, func() float64 {
		return timeMS(func() { _, perr = binpack.BranchAndBound(items, float64(seedb.DefaultOptions().GroupBudget), 0) })
	})
	if perr != nil {
		return perr
	}

	// engine: append path and snapshot codec
	acat := engine.NewCatalog()
	aclone := t.Clone(t.Name())
	if err := acat.Register(aclone); err != nil {
		return err
	}
	var aerr error
	m["engine.append_ms"] = medianOf(layerReps, func() float64 {
		return timeMS(func() { _, aerr = acat.Append(aclone, batch) })
	})
	if aerr != nil {
		return aerr
	}
	var snap bytes.Buffer
	var serr error
	m["engine.snapshot_write_ms"] = medianOf(layerReps, func() float64 {
		snap.Reset()
		return timeMS(func() { serr = engine.WriteTableSnapshot(&snap, t) })
	})
	if serr != nil {
		return serr
	}
	m["engine.snapshot_bytes_per_row"] = float64(snap.Len()) / float64(t.NumRows())
	m["engine.snapshot_read_ms"] = medianOf(layerReps, func() float64 {
		return timeMS(func() { _, serr = engine.ReadTable(bytes.NewReader(snap.Bytes())) })
	})
	if serr != nil {
		return serr
	}

	if plan == nil {
		return nil
	}
	// engine partials over the two half ranges, merge, finalize: what a
	// two-shard scatter does without the wire.
	n := t.NumRows()
	mid := n / 2 / engine.ChunkRows * engine.ChunkRows
	lo, hi := *plan.q, *plan.q
	lo.RowLo, lo.RowHi = 0, mid
	hi.RowLo, hi.RowHi = mid, n
	var partialsMS, mergeMS, finalMS []float64
	for i := 0; i < layerReps; i++ {
		var a, b []*engine.Partial
		var err error
		partialsMS = append(partialsMS, timeMS(func() {
			if a, err = ex.RunPartials(ctx, &lo, plan.gsets); err == nil {
				b, err = ex.RunPartials(ctx, &hi, plan.gsets)
			}
		}))
		if err != nil {
			return err
		}
		mergeMS = append(mergeMS, timeMS(func() {
			for j := range a {
				if err == nil {
					err = a[j].Merge(b[j])
				}
			}
		}))
		if err != nil {
			return err
		}
		finalMS = append(finalMS, timeMS(func() {
			for _, p := range a {
				p.Finalize()
			}
		}))
	}
	m["engine.partials_ms"], m["engine.merge_ms"], m["engine.finalize_ms"] = median(partialsMS), median(mergeMS), median(finalMS)

	// cluster wire: one whole-table shard request through the same
	// functions the coordinator and the worker handler call.
	hash, err := t.ContentHash()
	if err != nil {
		return err
	}
	var enc, dec []float64
	for i := 0; i < layerReps; i++ {
		t0 := time.Now()
		req, err := cluster.EncodeShardRequest(plan.q, plan.gsets, hash, 0, n, 1)
		if err != nil {
			return err
		}
		reqBuf, err := json.Marshal(req)
		if err != nil {
			return err
		}
		e := time.Since(t0)
		resp, _, err := cluster.ExecShardRequest(ctx, ex, req)
		if err != nil {
			return err
		}
		t0 = time.Now()
		respBuf, err := json.Marshal(resp)
		if err != nil {
			return err
		}
		enc = append(enc, ms(e+time.Since(t0)))
		var back cluster.ShardResponse
		dec = append(dec, timeMS(func() { err = json.Unmarshal(respBuf, &back) }))
		if err != nil {
			return err
		}
		m["cluster.wire.req_bytes"], m["cluster.wire.resp_bytes"] = float64(len(reqBuf)), float64(len(respBuf))
	}
	m["cluster.wire.encode_ms"], m["cluster.wire.decode_ms"] = median(enc), median(dec)
	return nil
}

// spanMS lists the durations (ms) of the spans with the given name.
func spanMS(spans []*span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// layerSelfMS lists, per traced op of the given class ("" = all), the
// layer's summed self time in ms.
func layerSelfMS(spans []*span, class, layer string) []float64 {
	var out []float64
	for _, b := range breakdowns(spans) {
		if class == "" || b.name == class {
			out = append(out, ms(b.self[layer]))
		}
	}
	return out
}

func countOps(spans []*span, class string) int {
	n := 0
	for _, s := range spans {
		if s.Parent == 0 && s.Layer == layerHarness && (class == "" || s.Name == class) {
			n++
		}
	}
	return n
}
