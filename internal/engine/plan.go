package engine

import (
	"fmt"
	"math"
	"slices"
)

// Planning: per-query bound state for one grouping-attribute list —
// row sets, grouper plans and their dense or hash group layouts.

// SetLayout describes the grouper plans a scan binds for one grouping
// set.
type SetLayout struct {
	// Dense is true when every plan bound for the set — the set's own
	// and, when it is split, both halves — uses the dense array-indexed
	// group layout, false when one uses the hash layout.
	Dense bool
	// Split is true when a where-free, unsampled scan under a partial
	// store keeps the set's predicate-free accumulators in a run of their
	// own, apart from the rest of the plan (see splitParts).
	Split bool
}

// Layouts reports, per grouping set, how a scan of the table would bind
// it. It is a planning diagnostic: it reads nothing but the memoized
// column ranges and never affects what a scan returns.
func (e *Executor) Layouts(table string, gsets []GroupingSet) ([]SetLayout, error) {
	t, err := e.cat.Table(table)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	fs := buildFilterSet(gsets)
	plans, err := buildGrouperPlans(t, gsets, fs, true)
	if err != nil {
		return nil, err
	}
	parts, zips := splitParts(gsets, plans, fs, "", true)
	out := make([]SetLayout, len(plans))
	for i, p := range plans {
		out[i].Dense = p.fast != nil
		if zips == nil {
			continue
		}
		z := zips[i]
		if z.ref >= 0 {
			out[i].Split = true
			out[i].Dense = out[i].Dense && parts[z.ref].plans[0].fast != nil
		}
		if z.own >= 0 {
			out[i].Dense = out[i].Dense && parts[len(parts)-1].plans[z.own].fast != nil
		}
	}
	return out, nil
}

// filterSet deduplicates the per-aggregate filter predicates of a
// query (by interface identity), so each is compiled and evaluated once
// per chunk however many aggregates or grouping sets share it. It also
// registers the scan's row sets: the distinct row subsets its
// accumulators consume, which the chunk driver extracts once per chunk
// for every grouper (see scanKernels.scanPartition).
type filterSet struct {
	preds []Predicate
	index map[Predicate]int

	// rowSets[0] is always the unrestricted set (every row passing the
	// sample and WHERE); bindAggs appends the rest. meas[i] lists the
	// measure columns accumulators over row set i read, which the chunk
	// driver gathers at the set's rows once per chunk when the set does
	// not hold every row (see scanKernels.gather).
	rowSets []rowSet
	meas    [][]measCol
}

// measCol is one measure column's values, as physAgg binds them.
type measCol struct {
	col string
	f64 []float64 // FLOAT measure
	i64 []int64   // INT measure
}

// rowSet names the rows one or more physical accumulators consume: the
// scan's selected rows, restricted to one shared filter and stripped of
// one measure column's NULL rows.
type rowSet struct {
	filter int         // index into filterSet.preds; -1 = unfiltered
	nulls  *nullBitmap // NULL rows to drop; nil = none
}

func buildFilterSet(gsets []GroupingSet) *filterSet {
	fs := &filterSet{index: map[Predicate]int{}, rowSets: []rowSet{{filter: -1}}, meas: [][]measCol{nil}}
	for _, gs := range gsets {
		for _, a := range gs.Aggs {
			if a.Filter == nil {
				continue
			}
			if _, ok := fs.index[a.Filter]; !ok {
				fs.index[a.Filter] = len(fs.preds)
				fs.preds = append(fs.preds, a.Filter)
			}
		}
	}
	return fs
}

// rowSetIndex returns the index of rs, registering it on first use. A
// scan has a handful of row sets, so a linear probe beats a map.
func (fs *filterSet) rowSetIndex(rs rowSet) int {
	for i, have := range fs.rowSets {
		if have == rs {
			return i
		}
	}
	fs.rowSets = append(fs.rowSets, rs)
	fs.meas = append(fs.meas, nil)
	return len(fs.rowSets) - 1
}

// measIndex returns the index of measure column m in row set set's
// gather list, registering it on first use.
func (fs *filterSet) measIndex(set int, m measCol) int {
	for i, have := range fs.meas[set] {
		if have.col == m.col {
			return i
		}
	}
	fs.meas[set] = append(fs.meas[set], m)
	return len(fs.meas[set]) - 1
}

// buildGrouperPlans binds one plan per grouping set. resultsOnly marks
// plans whose groupers only ever finalize results (never export
// partials), enabling slim accumulator updates.
func buildGrouperPlans(t *Table, gsets []GroupingSet, fs *filterSet, resultsOnly bool) ([]*grouperPlan, error) {
	out := make([]*grouperPlan, len(gsets))
	for i, gs := range gsets {
		p, err := newGrouperPlan(t, gs, fs, resultsOnly)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// fastKey maps one grouping column's rows to small dense integer codes
// in [0, card]: code card is the NULL group, codes below it enumerate
// the non-null key space (dictionary codes for strings, bin indices
// offset by qmin for binned or small-range int/time columns and for
// binned float columns).
type fastKey struct {
	typ   Type
	codes []int32  // string path: dictionary codes, -1 = NULL
	dict  []string // string path: code -> value
	vals  []int64  // int/time path: raw values
	nulls *nullBitmap
	width int64   // int/time path: bin width (1 = unbinned)
	qmin  int64   // int/time/float path: lowest occupied bin index
	base  int64   // qmin*width: lowest bin's floor, so v-base >= 0
	inv   float64 // 1/width when the reciprocal trick applies, else 0
	card  int     // non-null code count; slot card = NULL

	// float path: code = floor(v/fwidth) - qmin, the same division and
	// floor binFloor performs, so codes and materialized keys agree with
	// the generic encoder bit for bit.
	fvals  []float64
	fwidth float64
}

// valueOf materializes the boxed key value for a code — identical to
// what the generic key encoder would have produced for any row in the
// bin: dict[code] for strings, (qmin+code)*width = floor(v/width)*width
// for int/time and (the bin index being exactly representable) float.
func (k *fastKey) valueOf(code int) Value {
	if code == k.card {
		return NullValue(k.typ)
	}
	if k.codes != nil {
		return String(k.dict[code])
	}
	if k.typ == TypeFloat {
		return Float(canonFloat(float64(k.qmin+int64(code)) * k.fwidth))
	}
	v := (k.qmin + int64(code)) * k.width
	if k.typ == TypeTime {
		return Value{Kind: TypeTime, I: v}
	}
	return Int(v)
}

// Fast-layout budgets: dense slots (including per-dimension NULL slots)
// and total accumulators are bounded so a wide composite key or a huge
// dictionary falls back to the hash path instead of allocating a
// mostly-empty arena.
const (
	fastSlotLimit = 1 << 16
	fastAccLimit  = 1 << 18
)

// grouperPlan is the per-query bound state for one grouping set: bound
// aggregates, key columns, and either a dense fast layout or generic
// key encoders. Plans are immutable after construction and shared by
// every worker's grouper; building one may scan column ranges (memoized
// per table), so it must happen once per query, not per partition.
type grouperPlan struct {
	set     []string
	aggs    []boundAgg // logical aggregates, in output order
	nAggs   int
	keyCols []Column

	// phys and rowSets are the logical→physical map (see physAgg):
	// rowSets lists the scan row sets (filterSet.rowSets indices) the
	// physical accumulators consume.
	phys    []physAgg
	rowSets []int

	// groupRows is the scan row set whose rows give the groups: 0, every
	// selected row, except on the half of a split set that holds its
	// filtered accumulators (see splitParts). rowSets always lists it, at
	// groupCnt: a group exists exactly when it has a row there, so that
	// count is the group's existence mark.
	groupRows int
	groupCnt  int

	// fast path: nil when the generic hash layout is used.
	fast      []fastKey
	fastSlots int // product of (card+1) over fast

	// generic path: stateless per-column encoders.
	encs []keyEncoder
}

func newGrouperPlan(t *Table, gs GroupingSet, fs *filterSet, resultsOnly bool) (*grouperPlan, error) {
	p := &grouperPlan{set: gs.By, nAggs: len(gs.Aggs)}
	var err error
	if p.aggs, p.phys, p.rowSets, err = bindAggs(t, gs.Aggs, fs, resultsOnly); err != nil {
		return nil, err
	}
	p.countGroupRows()
	for _, name := range p.set {
		col, err := t.Column(name)
		if err != nil {
			return nil, err
		}
		if w := gs.BinWidths[name]; w != 0 {
			if w < 0 {
				return nil, fmt.Errorf("engine: bin width for %q must be positive, got %v", name, w)
			}
			if col.Type() == TypeString {
				return nil, fmt.Errorf("engine: cannot bin STRING column %q", name)
			}
		}
		p.keyCols = append(p.keyCols, col)
	}
	if p.tryFastLayout(t, gs) {
		return p, nil
	}
	for i, col := range p.keyCols {
		enc, err := newKeyEncoder(col, gs.BinWidths[p.set[i]])
		if err != nil {
			return nil, err
		}
		p.encs = append(p.encs, enc)
	}
	return p, nil
}

// countGroupRows records where rowSets lists groupRows, appending it
// when no accumulator consumes it.
func (p *grouperPlan) countGroupRows() {
	if p.groupCnt = slices.Index(p.rowSets, p.groupRows); p.groupCnt < 0 {
		p.groupCnt = len(p.rowSets)
		p.rowSets = append(p.rowSets, p.groupRows)
	}
}

// tryFastLayout installs the dense array-indexed layout when every key
// column (at most two) maps to small dense codes and the slot and
// accumulator budgets hold. A set with no keys is one global group: one
// slot, which every row maps to without a key fill or a hash probe.
func (p *grouperPlan) tryFastLayout(t *Table, gs GroupingSet) bool {
	if len(p.set) > 2 {
		return false
	}
	keys := make([]fastKey, len(p.set)) // non-nil even with no keys: p.fast != nil marks the layout
	slots := 1
	for i, name := range p.set {
		fk, ok := newFastKey(t, p.keyCols[i], gs.BinWidths[name])
		if !ok {
			return false
		}
		dim := fk.card + 1
		if slots > fastSlotLimit/dim {
			return false
		}
		slots *= dim
		keys[i] = fk
	}
	if slots*p.nAggs > fastAccLimit {
		return false
	}
	p.fast, p.fastSlots = keys, slots
	return true
}

func newFastKey(t *Table, col Column, binWidth float64) (fastKey, bool) {
	switch c := col.(type) {
	case *StringColumn:
		// binWidth != 0 on STRING was already rejected.
		return fastKey{typ: TypeString, codes: c.Codes(), dict: c.Dict(), nulls: activeNulls(&c.nulls), card: c.Cardinality()}, true
	case *IntColumn:
		return int64FastKey(t, col.Name(), TypeInt, c.Ints(), &c.nulls, binWidth)
	case *TimeColumn:
		return int64FastKey(t, col.Name(), TypeTime, c.Nanos(), &c.nulls, binWidth)
	case *FloatColumn:
		return floatFastKey(t, c, binWidth)
	}
	return fastKey{}, false
}

// int64FastKey builds the dense-code mapping for an INT/TIME key when
// its occupied bin range is small enough. The column's value range is
// memoized on the table and extended incrementally, so this stays
// O(appended delta) per query on a growing table.
func int64FastKey(t *Table, name string, typ Type, vals []int64, nb *nullBitmap, binWidth float64) (fastKey, bool) {
	w := int64(binWidth)
	if w < 1 {
		w = 1 // unbinned (width 0) and sub-1 widths, matching newKeyEncoder
	}
	ci, ok := t.byName[name]
	if !ok {
		return fastKey{}, false
	}
	vmin, vmax, any := t.int64RangeLocked(ci)
	if !any {
		// Every row is NULL (or the table is empty): one NULL slot.
		return fastKey{typ: typ, vals: vals, nulls: activeNulls(nb), width: w, card: 0}, true
	}
	qmin, qmax := floorDiv(vmin, w), floorDiv(vmax, w)
	span := uint64(qmax) - uint64(qmin) // wrap-safe bin-range width
	if span >= fastSlotLimit {
		return fastKey{}, false
	}
	k := fastKey{typ: typ, vals: vals, nulls: activeNulls(nb), width: w, qmin: qmin, card: int(span) + 1}
	if w < 1<<40 {
		// v-base stays below 2^16*width < 2^56, where the float bin
		// estimate is within one of exact (see binCode).
		k.base = qmin * w
		k.inv = 1 / float64(w)
	}
	return k, true
}

// floatFastKey builds the dense-code mapping for a binned FLOAT key.
// v -> floor(v/width) is monotone, so every finite value's bin index
// lies between those of the column's finite min and max (memoized like
// the int range). Unbinned floats, and columns holding NaN or ±Inf
// (whose bins have no index), keep the hash layout.
func floatFastKey(t *Table, c *FloatColumn, binWidth float64) (fastKey, bool) {
	ci, ok := t.byName[c.Name()]
	if !ok || !(binWidth > 0) || math.IsInf(binWidth, 0) {
		return fastKey{}, false
	}
	vmin, vmax, any, nonFinite := t.float64RangeLocked(ci)
	if nonFinite {
		return fastKey{}, false
	}
	k := fastKey{typ: TypeFloat, fvals: c.Floats(), nulls: activeNulls(&c.nulls), fwidth: binWidth}
	if !any {
		return k, true // every row NULL (or no rows): one NULL slot
	}
	qmin, qmax := math.Floor(vmin/binWidth), math.Floor(vmax/binWidth)
	// Bin indices must convert to int64 and back exactly (valueOf), and
	// a tiny width can overflow the quotient to ±Inf.
	const exact = 1 << 52
	if !(qmin > -exact && qmax < exact) || qmax-qmin >= fastSlotLimit {
		return fastKey{}, false
	}
	k.qmin, k.card = int64(qmin), int(qmax-qmin)+1
	return k, true
}

// slotKey materializes the boxed group key for a dense slot (mixed-
// radix decode; the last key varies fastest, matching processChunk).
func (p *grouperPlan) slotKey(slot int) []Value {
	key := make([]Value, len(p.fast))
	for i := len(p.fast) - 1; i >= 0; i-- {
		fk := &p.fast[i]
		dim := fk.card + 1
		key[i] = fk.valueOf(slot % dim)
		slot /= dim
	}
	return key
}

// floorDiv returns floor(v/w) for w >= 1 (Go's integer division
// truncates toward zero).
func floorDiv(v, w int64) int64 {
	q := v / w
	if v%w != 0 && v < 0 {
		q--
	}
	return q
}
