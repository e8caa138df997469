package core

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"seedb/internal/distance"
	"seedb/internal/engine"
	"seedb/internal/obs"
	"seedb/internal/stats"
)

// Phased execution with confidence-interval pruning.
//
// The demo paper's challenge (d) asks SeeDB to "trade-off accuracy of
// visualizations or estimation of interestingness for reduced
// latency". This module implements the technique the authors developed
// for that trade-off (CONFIDENCE_INTERVAL pruning in the full SeeDB
// paper, TR/VLDB'15): the table is processed in N phases; after each
// phase every surviving view's utility is re-estimated from the rows
// seen so far, a Hoeffding-style confidence radius
//
//	ε_m = B · sqrt( (1 − m/N) · ln(2/δ) / (2m) )
//
// (m of N phases done, δ = 1-confidence) is attached, and views whose
// upper bound u+ε falls below the k-th best view's lower bound u_k−ε
// are discarded without reading the rest of the table. B is the
// empirical utility scale — the largest interim utility observed —
// rather than the metric's worst-case bound: worst-case EMD over g
// groups is g−1, which would make ε so wide nothing ever prunes, while
// real SeeDB utilities live well under the observed maximum. The
// (1 − m/N) factor is the finite-population correction: estimates are
// exact at m = N because phases partition the table. Aggregates must
// be partition-mergeable, so phased mode supports COUNT, SUM, MIN and
// MAX views.
//
// This file is an extension beyond the demo paper (experiment E12
// measures its effect). It is also the engine of progressive
// streaming: each phase boundary emits a ProgressSnapshot through the
// listener seam in progress.go.

// phasedAcc merges per-phase raw view results across phases. COUNT and
// SUM add, MIN/MAX take extrema, and AVG merges the sum+count pairs
// the planner materialized as aux columns (an average itself is not
// partition-mergeable, its partials are).
type phasedAcc struct {
	view   View
	target map[string]float64
	comp   map[string]float64
	// tCnt / cCnt carry the AVG denominators per group; target/comp
	// then hold the numerator sums.
	tCnt   map[string]float64
	cCnt   map[string]float64
	seenT  map[string]bool
	seenC  map[string]bool
	pruned bool
}

func newPhasedAcc(v View) *phasedAcc {
	return &phasedAcc{
		view:   v,
		target: map[string]float64{},
		comp:   map[string]float64{},
		tCnt:   map[string]float64{},
		cCnt:   map[string]float64{},
		seenT:  map[string]bool{},
		seenC:  map[string]bool{},
	}
}

// merge folds one phase's raw vectors into the accumulator.
func (a *phasedAcc) merge(d *ViewData) {
	if a.view.Func == engine.AggAvg {
		mergeAvg := func(dst, cnt map[string]float64, seen map[string]bool, keys []string, aux *AvgAux) {
			if aux == nil {
				return
			}
			for i, k := range keys {
				if aux.Counts[i] <= 0 {
					continue // group absent on this side this phase
				}
				dst[k] += aux.Sums[i]
				cnt[k] += aux.Counts[i]
				seen[k] = true
			}
		}
		mergeAvg(a.target, a.tCnt, a.seenT, d.Keys, d.TargetAux)
		mergeAvg(a.comp, a.cCnt, a.seenC, d.Keys, d.ComparisonAux)
		return
	}
	mergeSide := func(dst map[string]float64, seen map[string]bool, keys []string, raw []float64, present []bool) {
		for i, k := range keys {
			if !present[i] {
				continue
			}
			v := raw[i]
			switch a.view.Func {
			case engine.AggCount, engine.AggSum:
				dst[k] += v
			case engine.AggMin:
				if !seen[k] || v < dst[k] {
					dst[k] = v
				}
			case engine.AggMax:
				if !seen[k] || v > dst[k] {
					dst[k] = v
				}
			}
			seen[k] = true
		}
	}
	// Merge only the groups a side produced this phase: an absent group
	// reads a zero raw, which MIN/MAX must not mistake for an extreme of
	// 0 — nor a present extreme of exactly 0 for an absent group.
	mergeSide(a.target, a.seenT, d.Keys, d.TargetRaw, d.targetHas)
	mergeSide(a.comp, a.seenC, d.Keys, d.ComparisonRaw, d.compHas)
}

// valueMaps returns the accumulated per-group view values for both
// sides: the merged raws directly, or numerator/denominator for AVG.
func (a *phasedAcc) valueMaps() (tMap, cMap map[string]float64) {
	if a.view.Func != engine.AggAvg {
		return a.target, a.comp
	}
	tMap = make(map[string]float64, len(a.target))
	for k, s := range a.target {
		if c := a.tCnt[k]; c > 0 {
			tMap[k] = s / c
		}
	}
	cMap = make(map[string]float64, len(a.comp))
	for k, s := range a.comp {
		if c := a.cCnt[k]; c > 0 {
			cMap[k] = s / c
		}
	}
	return tMap, cMap
}

// metricBound returns an upper bound B on the metric's value for
// distributions over at most maxGroups groups; used as a fallback
// utility scale before any interim utilities exist.
func metricBound(name string, maxGroups int) float64 {
	switch name {
	case "emd":
		if maxGroups < 2 {
			return 1
		}
		return float64(maxGroups - 1)
	case "euclidean":
		return math.Sqrt2
	case "js":
		return math.Sqrt(math.Ln2)
	case "l1":
		return 2
	case "kl":
		return math.Log(1 / distance.DefaultKLEpsilon)
	default:
		return 2
	}
}

// runPhased executes the surviving views in opts.Phases row-range
// chunks with confidence-interval pruning between phases, returning
// exact (unscored) ViewData for every view that survived to the end
// plus the actual phase count used (opts.Phases clamped to the row
// count). Interim pruning decisions score through the exploration
// operator, so the Hoeffding machinery works for any operator: the
// utility scale B is the largest interim utility the operator
// produced, with op.UtilityBound as the degenerate fallback. listener,
// when non-nil, receives a ProgressSnapshot after every non-final
// phase; the final snapshot is emitted by RecommendProgress once the
// ranking is sorted. Unless sample is set, every phase's first scan
// also counts the target rows of its range, and runPhased returns the
// sum — |D_Q| exactly, since the phases partition the table.
func (e *Engine) runPhased(ctx context.Context, views []View, ts *stats.TableStats, q Query, opts Options, op ExplorationOperator, metric distance.Metric, sample bool, st *RunStats, listener ProgressListener) ([]*ViewData, int, int64, error) {
	for _, v := range views {
		switch v.Func {
		case engine.AggCount, engine.AggSum, engine.AggMin, engine.AggMax, engine.AggAvg:
		default:
			return nil, 0, 0, fmt.Errorf("core: phased execution supports COUNT/SUM/AVG/MIN/MAX views; %s is not partition-mergeable without auxiliary state", v)
		}
	}
	tb, err := e.ex.Catalog().Table(q.Table)
	if err != nil {
		return nil, 0, 0, err
	}
	rows := tb.NumRows()
	phases := opts.Phases
	if phases > rows && rows > 0 {
		phases = rows
	}

	delta := 1 - opts.PhaseConfidence
	sc := &ScoreContext{Metric: metric, Opts: opts}

	accs := make(map[string]*phasedAcc, len(views))
	order := make([]string, 0, len(views))
	for _, v := range views {
		accs[v.Key()] = newPhasedAcc(v)
		order = append(order, v.Key())
	}
	surviving := views
	prunedTotal := 0
	var targetRows int64

	for phase := 0; phase < phases; phase++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, err
		}
		lo := phase * rows / phases
		hi := (phase + 1) * rows / phases
		if hi <= lo {
			continue
		}
		// Observation-only: span recording never alters execution or the
		// accumulated results (a nil trace makes every call a no-op).
		span := obs.TraceFrom(ctx).StartSpan("phase").
			SetAttr("phase", strconv.Itoa(phase+1)).
			SetAttr("rows", fmt.Sprintf("%d:%d", lo, hi))
		p, err := buildPlan(surviving, ts, q, opts)
		if err != nil {
			span.Finish()
			return nil, 0, 0, err
		}
		phaseData, phaseRows, err := executePlan(ctx, e, p, q, opts, op.NeedsReference(), sample, !sample, lo, hi)
		if err != nil {
			span.Finish()
			return nil, 0, 0, err
		}
		targetRows += phaseRows
		for _, d := range phaseData {
			if acc, ok := accs[d.View.Key()]; ok && !acc.pruned {
				acc.merge(d)
			}
		}
		span.Finish()

		if phase == phases-1 {
			break // final phase: no pruning decision needed
		}
		// Interim utilities and the confidence radius after m of N
		// phases. The utility scale B is empirical (max interim
		// utility), with the metric's worst-case bound only as a
		// degenerate fallback.
		m := float64(phase + 1)
		n := float64(phases)

		var interimData []*ViewData
		for _, key := range order {
			acc := accs[key]
			if acc.pruned {
				continue
			}
			tm, cm := acc.valueMaps()
			if d := buildViewData(acc.view, tm, cm); d != nil {
				interimData = append(interimData, d)
			}
		}
		scoredData, err := op.Score(sc, interimData)
		if err != nil {
			return nil, 0, 0, err
		}
		type scored struct {
			key  string
			view View
			u    float64
		}
		var interim []scored
		maxU := 0.0
		for _, d := range scoredData {
			interim = append(interim, scored{d.View.Key(), d.View, d.Utility})
			if d.Utility > maxU {
				maxU = d.Utility
			}
		}
		bound := maxU
		if bound <= 0 {
			bound = op.UtilityBound(metric.Name(), 2)
		}
		eps := bound * math.Sqrt((1-m/n)*math.Log(2/delta)/(2*m))
		var prunedNow []ProgressEntry
		// Pruning only applies with more survivors than the top-k; the
		// confidence radius is still reported on every snapshot.
		if len(interim) > opts.K {
			// k-th best lower bound.
			kth := kthLargest(interim, opts.K, func(s scored) float64 { return s.u })
			lower := kth - eps
			for _, s := range interim {
				if s.u+eps < lower {
					accs[s.key].pruned = true
					st.addPrune(PrunedPhased, "", 1)
					prunedNow = append(prunedNow, progressEntry(s.view, s.u, eps))
				}
			}
			surviving = surviving[:0]
			for _, key := range order {
				if !accs[key].pruned {
					surviving = append(surviving, accs[key].view)
				}
			}
		}
		prunedTotal += len(prunedNow)
		if listener != nil {
			ranking := make([]ProgressEntry, 0, len(interim)-len(prunedNow))
			for _, s := range interim {
				if !accs[s.key].pruned {
					ranking = append(ranking, progressEntry(s.view, s.u, eps))
				}
			}
			rankEntries(ranking)
			rankEntries(prunedNow)
			listener(&ProgressSnapshot{
				Phase:       phase + 1,
				Phases:      phases,
				Epsilon:     eps,
				Ranking:     ranking,
				PrunedNow:   prunedNow,
				PrunedTotal: prunedTotal,
				Survivors:   len(ranking),
			})
		}
	}

	var out []*ViewData
	for _, key := range order {
		acc := accs[key]
		if acc.pruned {
			continue
		}
		tm, cm := acc.valueMaps()
		if d := buildViewData(acc.view, tm, cm); d != nil {
			out = append(out, d)
		}
	}
	return out, phases, targetRows, nil
}

// kthLargest returns the k-th largest value (1-indexed) of the scored
// slice; k is clamped to the slice length.
func kthLargest[T any](items []T, k int, val func(T) float64) float64 {
	vals := make([]float64, len(items))
	for i, it := range items {
		vals[i] = val(it)
	}
	// Simple selection: sizes here are small (≤ a few hundred views).
	for i := 0; i < k && i < len(vals); i++ {
		maxJ := i
		for j := i + 1; j < len(vals); j++ {
			if vals[j] > vals[maxJ] {
				maxJ = j
			}
		}
		vals[i], vals[maxJ] = vals[maxJ], vals[i]
	}
	if k > len(vals) {
		k = len(vals)
	}
	return vals[k-1]
}
