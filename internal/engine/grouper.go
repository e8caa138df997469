package engine

import "math"

// grouper: aggregation state for one grouping-attribute list.

// grouper aggregates rows into groups keyed by a list of attributes.
// Every group has a slot; two layouts assign them, chosen by the shared
// plan:
//
//   - fast path: every key column maps to small dense codes (unbinned
//     dictionary strings, binned or small-range int/time, binned
//     float), composed into one mixed-radix slot — no hashing. SeeDB's
//     default plans bind nothing else (TestDefaultPlanAllDense).
//   - generic path: composite keys encoded to a byte string, hash map
//     from key to slot, slots handed out in order of first appearance.
//
// Aggregate state is indexed by slot and kept column-wise (one array
// per field of each PHYSICAL accumulator, see physAgg), so a chunk's
// updates to one accumulator walk a few small arrays — L1-resident at
// SeeDB's group cardinalities — rather than striding through per-group
// structs.
//
// Groupers are cheap arenas over their (immutable, shared) plan.
type grouper struct {
	plan *grouperPlan

	// stamp[slot] is the epoch of the last chunk whose per-row pass
	// touched the slot (see processChunk); 0 = none.
	stamp []uint32

	// generic path
	buf  []byte
	m    map[string]int
	keys [][]Value

	// cnt[i][slot] counts the group's rows in plan.rowSets[i]; a group
	// exists once cnt[plan.groupCnt][slot] is non-zero. cols[p] is
	// physical accumulator p. slots, codes, views, touched and epoch are
	// per-chunk scratch.
	cnt     [][]int64
	cols    []physCols
	slots   []int32   // in-chunk offset -> slot
	codes   []int32   // second key's codes (two-key fast layouts)
	views   [][]int32 // per plan row set: its rows' slots, in row order
	touched []int32   // slots the current chunk folds
	epoch   uint32
}

// physCols is one physical accumulator's state, column-wise over slots.
// sum/sumsq are the running float sums of the CURRENT chunk only: at
// chunk end they are folded exactly into exSum/exSumSq and zeroed (see
// accumulator for why). The other fields exist only
// on full accumulators; min/max may hold a NaN of any payload, which
// physAcc canonicalizes.
type physCols struct {
	sum, sumsq     []float64
	exSum, exSumSq []exactFloat
	min, max       []float64
	seen           []bool
}

// newGrouper instantiates an empty arena over the plan.
func (p *grouperPlan) newGrouper() *grouper {
	g := &grouper{plan: p}
	if p.fast == nil {
		g.m = make(map[string]int)
	}
	g.cnt = make([][]int64, len(p.rowSets))
	g.views = make([][]int32, len(p.rowSets))
	g.cols = make([]physCols, len(p.phys))
	g.slots = make([]int32, ChunkRows)
	if len(p.fast) > 1 {
		g.codes = make([]int32, ChunkRows)
	}
	if p.fast != nil {
		g.growSlots(p.fastSlots)
	}
	return g
}

// growSlots extends the per-slot state to n slots (new slots zero).
func (g *grouper) growSlots(n int) {
	if n <= len(g.stamp) {
		return
	}
	p := g.plan
	g.stamp = grown(g.stamp, n)
	for i := range g.cnt {
		g.cnt[i] = grown(g.cnt[i], n)
	}
	for i := range g.cols {
		pa, c := &p.phys[i], &g.cols[i]
		if pa.kind == measCount {
			continue
		}
		c.sum, c.exSum = grown(c.sum, n), grown(c.exSum, n)
		if pa.full {
			c.sumsq, c.exSumSq = grown(c.sumsq, n), grown(c.exSumSq, n)
			c.min, c.max, c.seen = grown(c.min, n), grown(c.max, n), grown(c.seen, n)
		}
	}
}

// grown returns s extended to length n, new elements zero, doubling
// capacity so repeated growth is amortized. Elements between len and
// cap are zero: nothing ever shrinks these slices.
func grown[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	out := make([]T, n, max(n, 2*cap(s)))
	copy(out, s)
	return out
}

// newGroupers instantiates one grouper arena per plan.
func newGroupers(plans []*grouperPlan) []*grouper {
	out := make([]*grouper, len(plans))
	for i, p := range plans {
		out[i] = p.newGrouper()
	}
	return out
}

func finalizeGroupers(groupers []*grouper) ([]*Result, error) {
	results := make([]*Result, len(groupers))
	for i, g := range groupers {
		results[i] = g.result()
	}
	return results, nil
}

// binCode maps a non-null value to its dense bin code with a reciprocal
// multiply instead of a hardware divide (~10x cheaper per row). u =
// v-base is non-negative, so the float estimate of u/width truncates to
// floor and is off by at most one; the integer remainder check makes it
// exact. Only set up when width < 2^40 (see int64FastKey), which keeps
// u < 2^16*width small enough that the estimate's error stays below 1.
func (k *fastKey) binCode(v int64) int32 {
	u := v - k.base
	q := int64(float64(u) * k.inv)
	r := u - q*k.width
	if r < 0 {
		q--
	} else if r >= k.width {
		q++
	}
	return int32(q)
}

// codeOf maps a row to its dense code (NULL-bearing int/float keys;
// fillCodes handles the other shapes in bulk).
func (k *fastKey) codeOf(row int) int32 {
	if k.codes != nil {
		c := k.codes[row]
		if c < 0 {
			return int32(k.card)
		}
		return c
	}
	if k.nulls != nil && k.nulls.get(row) {
		return int32(k.card)
	}
	if k.typ == TypeFloat {
		return int32(math.Floor(k.fvals[row]/k.fwidth) - float64(k.qmin))
	}
	return int32(floorDiv(k.vals[row], k.width) - k.qmin)
}

// rowSel is one row set's rows within the current chunk: ascending
// in-chunk offsets, or — dense — every row of the chunk, so consumers
// stream column slices directly instead of indirecting through sel.
// When not dense, vals[m] holds the values of the set's measure column m
// (filterSet.meas) at sel, gathered once for every grouper, and slots is
// the scratch each grouper in turn compacts its slots at sel into.
type rowSel struct {
	sel   []int32
	dense bool
	vals  [][]float64
	slots []int32
}

// view returns the slots of r's rows in row order: the chunk's own slots
// when r holds every row, else slots compacted at sel into r's scratch.
func (r *rowSel) view(slots []int32, n int) []int32 {
	if r.dense {
		return slots[:n]
	}
	out := r.slots[:len(r.sel)]
	for j, off := range r.sel {
		out[j] = slots[off]
	}
	return out
}

// fillCodes writes the dense code of each row in r (absolute row
// start+off) to out[off]. n is the chunk's row count.
func (k *fastKey) fillCodes(start, n int, r *rowSel, out []int32) {
	nullCode := int32(k.card)
	switch {
	case k.codes != nil:
		if r.dense {
			for j, c := range k.codes[start : start+n] {
				if c < 0 {
					c = nullCode
				}
				out[j] = c
			}
			return
		}
		codes := k.codes[start:]
		for _, off := range r.sel {
			c := codes[off]
			if c < 0 {
				c = nullCode
			}
			out[off] = c
		}
	case k.nulls != nil:
		if r.dense {
			for j := range out[:n] {
				out[j] = k.codeOf(start + j)
			}
			return
		}
		for _, off := range r.sel {
			out[off] = k.codeOf(start + int(off))
		}
	case k.typ == TypeFloat:
		w, qmin := k.fwidth, float64(k.qmin)
		if r.dense {
			for j, v := range k.fvals[start : start+n] {
				out[j] = int32(math.Floor(v/w) - qmin)
			}
			return
		}
		vals := k.fvals[start:]
		for _, off := range r.sel {
			out[off] = int32(math.Floor(vals[off]/w) - qmin)
		}
	case r.dense:
		w, qmin := k.width, k.qmin
		vals := k.vals[start : start+n]
		switch {
		case w == 1:
			for j, v := range vals {
				out[j] = int32(v - qmin)
			}
		case k.inv != 0:
			for j, v := range vals {
				out[j] = k.binCode(v)
			}
		default:
			for j, v := range vals {
				out[j] = int32(floorDiv(v, w) - qmin)
			}
		}
	default:
		w, qmin := k.width, k.qmin
		vals := k.vals[start:]
		switch {
		case w == 1:
			for _, off := range r.sel {
				out[off] = int32(vals[off] - qmin)
			}
		case k.inv != 0:
			for _, off := range r.sel {
				out[off] = k.binCode(vals[off])
			}
		default:
			for _, off := range r.sel {
				out[off] = int32(floorDiv(vals[off], w) - qmin)
			}
		}
	}
}

// hashSlot returns the slot of row's group on the generic path,
// creating the group (key materialized, state not yet grown — see
// growSlots) on first sight.
func (g *grouper) hashSlot(row int) int {
	p := g.plan
	g.buf = g.buf[:0]
	for _, e := range p.encs {
		g.buf = e.encode(row, g.buf)
	}
	slot, ok := g.m[string(g.buf)]
	if !ok {
		slot = len(g.keys)
		g.m[string(g.buf)] = slot
		key := make([]Value, len(p.encs))
		for i, e := range p.encs {
			key[i] = e.value(row)
		}
		g.keys = append(g.keys, key)
	}
	return slot
}

// processChunk folds one chunk (n rows from absolute row start) into
// the group state. rows holds the chunk's rows per scan row set
// (filterSet.rowSets order; rows[0] is everything the scan selected),
// extracted — and, for a set that does not hold every row, its measure
// values gathered — once for all groupers. Each accumulator sees its
// values in ascending row order, sums them from zero within the chunk,
// and folds the chunk sum exactly — so the folded state is a function
// of the rows and the grid alone.
func (g *grouper) processChunk(start, n int, rows []rowSel) {
	p := g.plan
	all := &rows[p.groupRows]

	// Every such row's slot, computed once for all accumulators (their
	// row sets lie inside groupRows). A lone NULL-free dictionary key's
	// codes are its slots. With no keys every slot is 0, as allocated.
	slots := g.slots
	switch {
	case len(p.fast) == 1 && p.fast[0].codes != nil && p.fast[0].nulls == nil:
		slots = p.fast[0].codes[start : start+n]
	case p.fast != nil:
		if len(p.fast) > 0 {
			p.fast[0].fillCodes(start, n, all, slots)
		}
		for ki := 1; ki < len(p.fast); ki++ {
			fk := &p.fast[ki]
			fk.fillCodes(start, n, all, g.codes)
			dim := int32(fk.card + 1)
			if all.dense {
				for j, c := range g.codes[:n] {
					slots[j] = slots[j]*dim + c
				}
			} else {
				for _, off := range all.sel {
					slots[off] = slots[off]*dim + g.codes[off]
				}
			}
		}
	default:
		if all.dense {
			for j := 0; j < n; j++ {
				slots[j] = int32(g.hashSlot(start + j))
			}
		} else {
			for _, off := range all.sel {
				slots[off] = int32(g.hashSlot(start + int(off)))
			}
		}
		g.growSlots(len(g.keys))
	}

	// One counting pass per row set, over its slots in row order (a
	// one-slot layout's count is the row count).
	for i, ri := range p.rowSets {
		v := rows[ri].view(slots, n)
		g.views[i] = v
		if p.fastSlots == 1 {
			g.cnt[i][0] += int64(len(v))
		} else {
			countRows(g.cnt[i], v)
		}
	}

	// The slots this chunk folds. A dense layout with no more slots than
	// groupRows has rows here folds every existing group, found once per
	// slot from the group counts (a group this chunk missed folds zero
	// sums, which foldSums skips); any other layout stamps its groupRows
	// slots row by row.
	touched := g.touched[:0]
	if gv := g.views[p.groupCnt]; p.fast != nil && p.fastSlots <= len(gv) {
		for s, c := range g.cnt[p.groupCnt] {
			if c != 0 {
				touched = append(touched, int32(s))
			}
		}
	} else {
		g.epoch++
		epoch, stamp := g.epoch, g.stamp
		for _, s := range gv {
			if stamp[s] != epoch {
				stamp[s] = epoch
				touched = append(touched, s)
			}
		}
	}
	g.touched = touched

	// One summing pass per accumulator: column slices when its row set
	// holds every row, else the values gathered at the set's rows.
	for i := range p.phys {
		pa, c := &p.phys[i], &g.cols[i]
		r, v := &rows[p.rowSets[pa.rows]], g.views[pa.rows]
		switch {
		case pa.kind == measCount:
		case !r.dense && pa.full:
			addFull(c, r.vals[pa.meas], v)
		case !r.dense:
			addSums(c.sum, r.vals[pa.meas], v)
		case pa.kind == measFloat && pa.full:
			addFull(c, pa.f64[start:start+n], v)
		case pa.kind == measFloat:
			addSums(c.sum, pa.f64[start:start+n], v)
		case pa.full:
			addFull(c, pa.i64[start:start+n], v)
		default:
			addSums(c.sum, pa.i64[start:start+n], v)
		}
	}

	// Fold the chunk's running sums into the exact totals.
	for i := range g.cols {
		c := &g.cols[i]
		if c.sum != nil {
			foldSums(c.sum, c.exSum, touched)
		}
		if c.sumsq != nil {
			stickNaN(c, touched)
			foldSums(c.sumsq, c.exSumSq, touched)
		}
	}
}

// countRows adds one to cnt[s] for every slot s.
func countRows(cnt []int64, slots []int32) {
	for _, s := range slots {
		cnt[s]++
	}
}

// addSums is the slim per-row update: the chunk sum only. vals[j] is
// the value of the row whose slot is slots[j].
func addSums[T int64 | float64](sum []float64, vals []T, slots []int32) {
	slots = slots[:len(vals)]
	for j, v := range vals {
		sum[slots[j]] += float64(v)
	}
}

// addFull is the full per-row update (the count lives with the row
// set). A NaN is adopted only as a group's first value; stickNaN catches
// the others at chunk end.
func addFull[T int64 | float64](c *physCols, vals []T, slots []int32) {
	sum, sumsq, mn, mx, seen := c.sum, c.sumsq, c.min, c.max, c.seen
	slots = slots[:len(vals)]
	for j, x := range vals {
		s, v := slots[j], float64(x)
		sum[s] += v
		sumsq[s] += v * v
		if !seen[s] || v < mn[s] {
			mn[s] = v
		}
		if !seen[s] || v > mx[s] {
			mx[s] = v
		}
		seen[s] = true
	}
}

// stickNaN makes NaN sticky for MIN/MAX (see mergeExtremes) without a
// per-row check: a chunk's sum of squares is NaN exactly when one of the
// chunk's values is (the square of ±Inf is +Inf, and +Inf only ever adds
// up to +Inf), and once an extreme is NaN no </> comparison replaces it.
// Must run before the chunk's sums are folded away.
func stickNaN(c *physCols, touched []int32) {
	for _, s := range touched {
		if sq := c.sumsq[s]; sq != sq {
			c.min[s], c.max[s] = sq, sq
		}
	}
}

// foldSums moves the touched slots' chunk sums into the exact totals.
func foldSums(sum []float64, ex []exactFloat, touched []int32) {
	for _, s := range touched {
		if v := sum[s]; v != 0 {
			ex[s].Add(v)
			sum[s] = 0
		}
	}
}

// physAcc materializes physical accumulator pi of group slot as an
// accumulator value (sharing, not copying, its exact limbs).
func (g *grouper) physAcc(slot, pi int) accumulator {
	pa, c := &g.plan.phys[pi], &g.cols[pi]
	a := accumulator{count: g.cnt[pa.rows][slot]}
	switch {
	case pa.kind == measCount:
		a.seen = pa.presence && a.count > 0
	case pa.full:
		a.exSum, a.exSumSq = c.exSum[slot], c.exSumSq[slot]
		a.min, a.max, a.seen = c.min[slot], c.max[slot], c.seen[slot]
		if a.min != a.min {
			a.min, a.max = math.NaN(), math.NaN()
		}
	default:
		a.exSum = c.exSum[slot]
	}
	return a
}

// forEachGroup calls fn with every existing group's key and physical
// accumulators (a buffer reused across calls).
func (g *grouper) forEachGroup(fn func(key []Value, phys []accumulator)) {
	p := g.plan
	phys := make([]accumulator, len(p.phys))
	for slot, c := range g.cnt[p.groupCnt] {
		if c == 0 {
			continue
		}
		for pi := range phys {
			phys[pi] = g.physAcc(slot, pi)
		}
		if p.fast != nil {
			fn(p.slotKey(slot), phys)
		} else {
			fn(g.keys[slot], phys)
		}
	}
}

// mergeFrom folds another grouper's partial state (same plan, different
// row partition) into g.
func (g *grouper) mergeFrom(o *grouper) {
	p := g.plan
	if p.fast == nil {
		// Adopt o's groups: after this, o's slot s is g's slot remap[s].
		remap := make([]int, len(o.keys))
		for key, oslot := range o.m {
			slot, ok := g.m[key]
			if !ok {
				slot = len(g.keys)
				g.m[key] = slot
				g.keys = append(g.keys, o.keys[oslot])
			}
			remap[oslot] = slot
		}
		g.growSlots(len(g.keys))
		for oslot, slot := range remap {
			g.mergeSlot(slot, o, oslot)
		}
		return
	}
	for slot, c := range o.cnt[p.groupCnt] {
		if c != 0 {
			g.mergeSlot(slot, o, slot)
		}
	}
}

// mergeSlot folds o's group oslot into g's group slot.
func (g *grouper) mergeSlot(slot int, o *grouper, oslot int) {
	for i := range g.cnt {
		g.cnt[i][slot] += o.cnt[i][oslot]
	}
	for i := range g.cols {
		c, oc := &g.cols[i], &o.cols[i]
		if c.exSum == nil {
			continue
		}
		c.exSum[slot].Merge(&oc.exSum[oslot])
		if c.exSumSq == nil {
			continue
		}
		c.exSumSq[slot].Merge(&oc.exSumSq[oslot])
		if oc.seen[oslot] {
			mergeExtremes(&c.seen[slot], &c.min[slot], &c.max[slot], oc.min[oslot], oc.max[oslot])
		}
	}
}

// result materializes the grouper state as a Result with rows sorted by
// group key so output is deterministic.
func (g *grouper) result() *Result {
	p := g.plan
	cols := make([]string, 0, len(p.set)+p.nAggs)
	cols = append(cols, p.set...)
	for _, a := range p.aggs {
		cols = append(cols, a.spec.Name())
	}
	res := &Result{Columns: cols}
	finals := make([]finalState, len(p.phys))
	g.forEachGroup(func(key []Value, phys []accumulator) {
		for i := range phys {
			finals[i] = phys[i].final()
		}
		row := make([]Value, 0, len(key)+p.nAggs)
		row = append(row, key...)
		for i := range p.aggs {
			a := &p.aggs[i]
			row = append(row, finals[a.phys].finalize(a.spec.Func))
		}
		res.Rows = append(res.Rows, row)
	})

	// Deterministic output order: sort by the grouping key columns.
	keys := make([]OrderKey, len(p.set))
	for i, s := range p.set {
		keys[i] = OrderKey{Column: s}
	}
	if len(keys) > 0 {
		_ = res.sortBy(keys)
	}
	return res
}
