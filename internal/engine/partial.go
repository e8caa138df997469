package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Partial is the partition-mergeable form of a query result: one entry
// per group holding raw accumulator state instead of finalized values.
// Partials from disjoint row ranges of the same table merge into
// exactly the state a single scan of the union would have produced —
// COUNT adds, MIN/MAX take extrema, and SUM/AVG/VAR/STDDEV carry their
// sums as exact fixed-point state (see exactFloat), so the merge is
// associative and the finalized bytes are independent of how the scan
// was partitioned. This generalizes the paper's phased-execution
// partial merging to the full aggregate set and is the unit of
// exchange between cluster shards and their coordinator.
//
// The state is physical: every aggregate of a grouping set over one
// (measure, filter) pair — SUM(m), AVG(m), MIN(m)… — reads one
// accumulator during the scan, and a partial carries that accumulator's
// state once. Phys maps the logical aggregates onto the states; Finalize
// is the one place they fan back out.
//
// Partials cross processes as binary frames (FrameCodec.Partial), which
// carry every bit — −0 and NaN payloads included. The JSON tags serve
// debugging views only: JSON has no number for a non-finite float.
type Partial struct {
	// By lists the grouping columns; Cols and Funcs describe the
	// aggregate output columns, parallel slices.
	By    []string  `json:"by,omitempty"`
	Cols  []string  `json:"cols"`
	Funcs []AggFunc `json:"funcs"`
	// Phys maps logical aggregate i to the physical accumulator holding
	// its state: PartialGroup.Accs[Phys[i]].
	Phys []int `json:"phys"`
	// Groups holds one entry per group, sorted by key.
	Groups []PartialGroup `json:"groups"`
}

// PartialGroup is one group's key and per-physical-accumulator state.
type PartialGroup struct {
	Key  []Value    `json:"key,omitempty"`
	Accs []AccState `json:"accs"`
}

// AccState is the serializable state of one physical accumulator.
type AccState struct {
	Count int64      `json:"count,omitempty"`
	Sum   ExactState `json:"sum,omitzero"`
	SumSq ExactState `json:"sumsq,omitzero"`
	Min   float64    `json:"min,omitempty"`
	Max   float64    `json:"max,omitempty"`
	Seen  bool       `json:"seen,omitempty"`
}

// numPhys is the number of physical accumulators behind the logical
// aggregates: every one backs at least one of them.
func numPhys(phys []int) int {
	n := 0
	for _, i := range phys {
		n = max(n, i+1)
	}
	return n
}

// accState snapshots an accumulator.
func accState(a *accumulator) AccState {
	return AccState{Count: a.count, Sum: a.exSum.State(), SumSq: a.exSumSq.State(), Min: a.min, Max: a.max, Seen: a.seen}
}

// RunPartials executes one scan feeding every grouping set — exactly
// like RunSharedScan — but returns partition-mergeable partials
// instead of finalized results. q.GroupBy/q.Aggs are used as a single
// implicit set when gsets is nil, mirroring Run. With a partial store
// installed, the plan's stored run is reused and only the rows it does
// not cover are scanned (cluster workers therefore keep serving the
// sealed prefix of a table from the store across appends). The caller
// owns what comes back: no returned partial is shared with the store.
func (e *Executor) RunPartials(ctx context.Context, q *Query, gsets []GroupingSet) ([]*Partial, error) {
	if gsets == nil {
		gsets = []GroupingSet{{By: q.GroupBy, Aggs: q.Aggs, BinWidths: q.BinWidths}}
	}
	s, err := e.bindScan(ctx, q, gsets, false)
	if err != nil {
		return nil, err
	}
	defer s.close()
	return s.partials(ctx)
}

// partial exports the grouper state, groups sorted by key: one state per
// physical accumulator, all of a partial's states in one array. Exported
// state is fully owned by the Partial (accState snapshots fresh digit
// slices, key []Value slices are never mutated afterwards).
func (g *grouper) partial() *Partial {
	plan := g.plan
	p := plan.emptyPartial()
	groups := 0
	for _, c := range g.cnt[plan.groupCnt] {
		if c != 0 {
			groups++
		}
	}
	nPhys := len(plan.phys)
	states := make([]AccState, groups*nPhys)
	p.Groups = make([]PartialGroup, 0, groups)
	g.forEachGroup(func(key []Value, phys []accumulator) {
		accs := states[:nPhys:nPhys]
		states = states[nPhys:]
		for i := range phys {
			accs[i] = accState(&phys[i])
		}
		p.Groups = append(p.Groups, PartialGroup{Key: key, Accs: accs})
	})
	sort.Slice(p.Groups, func(i, j int) bool {
		return compareKeys(p.Groups[i].Key, p.Groups[j].Key) < 0
	})
	return p
}

// emptyPartial returns a partial with the plan's shape — grouping
// columns, aggregate list, physical map — and no groups.
func (p *grouperPlan) emptyPartial() *Partial {
	out := &Partial{By: append([]string(nil), p.set...), Phys: make([]int, len(p.aggs))}
	for i, a := range p.aggs {
		out.Cols = append(out.Cols, a.spec.Name())
		out.Funcs = append(out.Funcs, a.spec.Func)
		out.Phys[i] = a.phys
	}
	return out
}

// compareKeys orders group keys column-wise (NULLs first), matching
// the deterministic ordering of finalized results.
func compareKeys(a, b []Value) int {
	for i := range a {
		if i >= len(b) {
			return 1
		}
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	if len(a) < len(b) {
		return -1
	}
	return 0
}

// appendValueKey appends a group key's canonical comparable encoding,
// for merge lookups. Kind and null status are part of the encoding, so
// Int(0) and Float(0) never collide.
func appendValueKey(buf []byte, key []Value) []byte {
	var tmp [8]byte
	for _, v := range key {
		buf = append(buf, byte(v.Kind))
		if v.Null {
			buf = append(buf, 1)
			continue
		}
		buf = append(buf, 0)
		switch v.Kind {
		case TypeInt, TypeTime:
			binary.LittleEndian.PutUint64(tmp[:], uint64(v.I))
			buf = append(buf, tmp[:]...)
		case TypeFloat:
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.F))
			buf = append(buf, tmp[:]...)
		case TypeString:
			binary.LittleEndian.PutUint64(tmp[:], uint64(len(v.S)))
			buf = append(buf, tmp[:]...)
			buf = append(buf, v.S...)
		}
	}
	return buf
}

// MergePartials is the engine's merge entry point: parts[i] holds
// partition i's partials, one per grouping set, over disjoint row
// partitions of one table; the result is one partial per set with the
// partitions folded in the order given. Per set, one key index and one
// array of in-memory accumulators live across all inputs, so the cost is
// digit additions per (partition, group, aggregate) plus ONE
// canonicalization per group at the end. Partitions are walked one at a
// time, all sets of each (a partition's partials were built together
// and sit together in memory). Inputs are never mutated and share no
// mutable state with the result.
func MergePartials(parts [][]*Partial) ([]*Partial, error) {
	if len(parts) == 0 {
		return nil, nil
	}
	mergers := make([]*partialMerger, len(parts[0]))
	for _, ps := range parts {
		if len(ps) != len(mergers) {
			return nil, fmt.Errorf("engine: merging partitions with %d vs %d grouping sets", len(ps), len(mergers))
		}
		for s, p := range ps {
			if p == nil {
				return nil, fmt.Errorf("engine: merging a nil partial (grouping set %d)", s)
			}
			if mergers[s] == nil {
				mergers[s] = newPartialMerger(p)
			}
			if err := mergers[s].fold(p); err != nil {
				return nil, err
			}
		}
	}
	out := make([]*Partial, len(mergers))
	for s, m := range mergers {
		out[s] = m.partial()
	}
	return out, nil
}

// Merge folds another partial — the same grouping set computed over a
// disjoint row partition — into p: MergePartials' two-input case.
func (p *Partial) Merge(o *Partial) error {
	merged, err := MergePartials([][]*Partial{{p}, {o}})
	if err != nil {
		return err
	}
	p.Groups = merged[0].Groups
	return nil
}

// partialMerger accumulates many disjoint-partition partials of one
// grouping set into in-memory accumulator state, one per physical
// accumulator per group.
type partialMerger struct {
	by    []string
	cols  []string
	funcs []AggFunc
	phys  []int
	nPhys int
	m     map[string]int
	keys  [][]Value
	accs  []accumulator // len(keys) * nPhys
	kbuf  []byte        // scratch for appendValueKey
}

// newPartialMerger builds an empty merger with the shape (grouping
// columns, aggregate list, physical map) of the given partial, sized for
// its groups — partitions of one table mostly meet the same groups, and
// growing the accumulator array by doubling would copy it whole several
// times.
func newPartialMerger(shape *Partial) *partialMerger {
	n, nPhys := len(shape.Groups), numPhys(shape.Phys)
	return &partialMerger{
		by:    append([]string(nil), shape.By...),
		cols:  append([]string(nil), shape.Cols...),
		funcs: append([]AggFunc(nil), shape.Funcs...),
		phys:  append([]int(nil), shape.Phys...),
		nPhys: nPhys,
		m:     make(map[string]int, n),
		keys:  make([][]Value, 0, n),
		accs:  make([]accumulator, 0, n*nPhys),
	}
}

// fold merges one partial (a disjoint row partition) into the merger.
func (m *partialMerger) fold(p *Partial) error {
	if len(p.Cols) != len(m.cols) || len(p.Funcs) != len(m.cols) || len(p.Phys) != len(m.cols) {
		return fmt.Errorf("engine: merging partials with %d vs %d aggregates", len(p.Cols), len(m.cols))
	}
	for i := range m.cols {
		if p.Cols[i] != m.cols[i] || p.Funcs[i] != m.funcs[i] {
			return fmt.Errorf("engine: merging partials with mismatched aggregate %d: %s(%v) vs %s(%v)",
				i, m.cols[i], m.funcs[i], p.Cols[i], p.Funcs[i])
		}
		if p.Phys[i] != m.phys[i] {
			return fmt.Errorf("engine: merging partials that map aggregate %d (%s) to physical accumulator %d vs %d",
				i, m.cols[i], m.phys[i], p.Phys[i])
		}
	}
	nPhys := m.nPhys
	for gi := range p.Groups {
		g := &p.Groups[gi]
		if len(g.Accs) != nPhys {
			return fmt.Errorf("engine: partial group carries %d accumulators, want %d", len(g.Accs), nPhys)
		}
		m.kbuf = appendValueKey(m.kbuf[:0], g.Key)
		slot, ok := m.m[string(m.kbuf)]
		if !ok {
			slot = len(m.keys)
			m.m[string(m.kbuf)] = slot
			m.keys = append(m.keys, g.Key)
			m.accs = append(m.accs, make([]accumulator, nPhys)...)
		}
		dst := m.accs[slot*nPhys : (slot+1)*nPhys]
		for i := range dst {
			dst[i].mergeState(&g.Accs[i])
		}
	}
	return nil
}

// partial exports the merged state, groups sorted by key.
func (m *partialMerger) partial() *Partial {
	p := &Partial{By: m.by, Cols: m.cols, Funcs: m.funcs, Phys: m.phys}
	nPhys := m.nPhys
	states := make([]AccState, len(m.accs))
	for i := range m.accs {
		states[i] = accState(&m.accs[i])
	}
	p.Groups = make([]PartialGroup, len(m.keys))
	for slot, key := range m.keys {
		p.Groups[slot] = PartialGroup{Key: key, Accs: states[slot*nPhys : (slot+1)*nPhys : (slot+1)*nPhys]}
	}
	sort.Slice(p.Groups, func(i, j int) bool {
		return compareKeys(p.Groups[i].Key, p.Groups[j].Key) < 0
	})
	return p
}

// Finalize materializes the merged state as a Result, rows sorted by
// group key — byte-identical to what a single whole-range scan would
// have returned. Each physical state is rounded once, then read by every
// logical aggregate it backs.
func (p *Partial) Finalize() *Result {
	cols := make([]string, 0, len(p.By)+len(p.Cols))
	cols = append(cols, p.By...)
	cols = append(cols, p.Cols...)
	res := &Result{Columns: cols}
	finals := make([]finalState, numPhys(p.Phys))
	for gi := range p.Groups {
		g := &p.Groups[gi]
		for i := range finals {
			finals[i] = g.Accs[i].final()
		}
		row := make([]Value, 0, len(g.Key)+len(p.Funcs))
		row = append(row, g.Key...)
		for i, f := range p.Funcs {
			row = append(row, finals[p.Phys[i]].finalize(f))
		}
		res.Rows = append(res.Rows, row)
	}
	// Groups are kept key-sorted by construction, which matches the
	// grouper's deterministic output order; re-sorting here would only
	// mask a merge bug, so trust the invariant.
	return res
}
