package engine

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"seedb/internal/obs"
)

// ---------------------------------------------------------------------
// Deterministic chunk grid
//
// Every table's row space is divided into fixed-size cells of ChunkRows
// rows (boundary i at i*ChunkRows). Scans fold float sums per grid cell
// and combine the cell partials exactly (see exactFloat), so aggregate
// results depend only on the table contents and the query — never on
// scan parallelism or on how a cluster backend splits the row range —
// provided every partition boundary lies on the grid. splitAligned and
// ShardRanges only ever produce grid-aligned boundaries; arbitrary
// RowLo/RowHi ranges (phased execution) remain deterministic per range
// because cell partials cut at a range edge are still a pure function
// of (table, range).
//
// The grid is ABSOLUTE: boundaries are multiples of ChunkRows, not
// fractions of the current row count. That makes it append-stable —
// appending rows never moves an existing boundary, so a cell that was
// fully populated ("sealed") before an append holds exactly the same
// rows after it. The partial store (pstore.go) relies on this: a run of
// sealed cells aggregated before an append remains byte-valid, and a
// query after the append only has to scan the cells the append touched.

// ChunkRows is the fixed number of rows per grid cell. 1024 keeps the
// exact-fold overhead negligible while giving even small tables enough
// boundaries for cluster backends to split, and bounds the incremental
// re-scan after an append to (delta + ChunkRows) rows.
const ChunkRows = 1024

// chunkStart returns the first row of grid cell c.
func chunkStart(c int) int { return c * ChunkRows }

// chunkOf returns the grid cell containing row r.
func chunkOf(r int) int {
	if r < 0 {
		return 0
	}
	return r / ChunkRows
}

// alignToGrid returns the smallest grid boundary >= r.
func alignToGrid(r int) int {
	if r <= 0 {
		return 0
	}
	return ((r + ChunkRows - 1) / ChunkRows) * ChunkRows
}

// splitAligned cuts [lo,hi) into at most parts contiguous sub-ranges
// whose interior boundaries all lie on the chunk grid. Empty sub-ranges
// are dropped, so fewer than parts ranges may come back.
func splitAligned(lo, hi, parts int) [][2]int {
	if parts < 1 {
		parts = 1
	}
	n := hi - lo
	var out [][2]int
	prev := lo
	for k := 1; k < parts; k++ {
		b := alignToGrid(lo + k*n/parts)
		if b <= prev {
			continue
		}
		if b >= hi {
			break
		}
		out = append(out, [2]int{prev, b})
		prev = b
	}
	if hi > prev {
		out = append(out, [2]int{prev, hi})
	}
	return out
}

// ShardRanges partitions [lo,hi) of a table with rows rows into at
// most n grid-aligned sub-ranges (hi <= 0 means the whole table). The
// cluster layer uses this to assign shard row ranges: because the cuts
// are grid-aligned, the merged shard partials are bit-identical to a
// single-node scan for every n.
func ShardRanges(rows, lo, hi, n int) [][2]int {
	if hi <= 0 || hi > rows {
		hi = rows
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return nil
	}
	return splitAligned(lo, hi, n)
}

// scan is one query bound to its table: the validated row range, the
// plans (bound aggregates, key encoders, fast group layout — built ONCE
// per query and shared read-only by every worker and every piece of the
// range), and the compiled kernels. It lives exactly as long as the
// table's read lock, which bindScan takes and close releases.
type scan struct {
	e     *Executor
	t     *Table
	q     *Query
	fs    *filterSet
	smp   *sampler
	plans []*grouperPlan
	// kernels holds one compiled kernel set per worker, grown on demand
	// and reused across the pieces of a range (pieces run one after
	// another; kernels only read column data, but their chunk scratch
	// buffers must never be shared between concurrent workers).
	kernels []*scanKernels

	lo, hi int

	// span is the scan's engine-scan span (nil when ctx carries no
	// trace); passes and scanned count runGroupers calls and their rows,
	// hashed the sealed cells the scan digested (see body).
	span                    *obs.Span
	passes, scanned, hashed int

	// st is the partial store when it applies to this range — installed,
	// and [lo,hi) contains at least one sealed grid cell — else nil.
	// [a,ahi) is then the range's sealed body: the whole cells inside it.
	// parts are the runs the body's state is kept in and zips, when the
	// scan is split, how each set's partial is put back together from
	// them (see splitParts).
	st     *PartialStore
	a, ahi int
	parts  []*runPart
	zips   []setZip
}

// bindScan validates (q, gsets) against the table, read-locks it and
// builds everything a scan of the query's range needs; one kernel set is
// compiled up front so an invalid predicate fails the query whether or
// not a stored run happens to cover its rows. It counts the logical
// query once, however many pieces the range is later scanned in, and
// starts its engine-scan span. On success the caller owns the read lock
// on s.t and releases it with s.close. resultsOnly licenses slim
// accumulator updates that skip state finalization never reads (see
// bindAggs); it is ignored when the store applies, because a stored run
// is exported partials.
func (e *Executor) bindScan(ctx context.Context, q *Query, gsets []GroupingSet, resultsOnly bool) (s *scan, err error) {
	for _, gs := range gsets {
		if len(gs.Aggs) == 0 {
			return nil, fmt.Errorf("engine: query on %q has a grouping set with no aggregates", q.Table)
		}
	}
	t, err := e.cat.Table(q.Table)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer func() {
		if err != nil {
			t.mu.RUnlock()
		}
	}()

	fs := buildFilterSet(gsets)
	s = &scan{e: e, t: t, q: q, fs: fs, hi: t.rows,
		smp: newSampler(q.SampleFraction, q.SampleSeed, q.SampleBase)}
	if q.RowHi > 0 {
		if q.RowLo < 0 || q.RowLo > q.RowHi || q.RowHi > t.rows {
			return nil, fmt.Errorf("engine: row range [%d,%d) invalid for table %q with %d rows",
				q.RowLo, q.RowHi, q.Table, t.rows)
		}
		s.lo, s.hi = q.RowLo, q.RowHi
	}
	// Every cell below hi's is sealed: hi <= t.rows and the grid is
	// absolute.
	s.a, s.ahi = alignToGrid(s.lo), chunkStart(chunkOf(s.hi))
	if st := e.PartialStore(); st != nil && s.ahi-s.a >= ChunkRows {
		s.st = st
		resultsOnly = false
	}
	if s.plans, err = buildGrouperPlans(t, gsets, fs, resultsOnly); err != nil {
		return nil, err
	}
	if s.st != nil {
		// Split parts register the row sets their groups come from: before compiling.
		s.parts, s.zips = splitParts(gsets, s.plans, fs, PlanSignature(q, gsets), q.Where == nil && s.smp == nil)
	}
	sk, err := compileScan(t, q.Where, fs, s.smp)
	if err != nil {
		return nil, err
	}
	s.kernels = []*scanKernels{sk}
	e.count(ctx, 1, 0)
	s.span = obs.TraceFrom(ctx).StartSpan("engine-scan")
	return s, nil
}

// close finishes the scan's span and releases the table's read lock.
func (s *scan) close() {
	defer s.t.mu.RUnlock()
	if s.span == nil {
		return
	}
	dense, gathered := 0, 0
	for _, p := range s.plans {
		if p.fast != nil {
			dense++
		}
	}
	for set := range s.fs.rowSets {
		if slices.ContainsFunc(s.kernels, func(sk *scanKernels) bool { return sk.gathers[set] > 0 }) {
			gathered++
		}
	}
	s.span.SetAttr("table", s.t.Name()).SetAttr("rows", strconv.Itoa(s.scanned)).
		SetAttr("passes", strconv.Itoa(s.passes)).SetAttr("sets", strconv.Itoa(len(s.plans))).
		SetAttr("dense", strconv.Itoa(dense)).SetAttr("hash", strconv.Itoa(len(s.plans)-dense)).
		SetAttr("gathered", strconv.Itoa(gathered)).SetAttr("hashed", strconv.Itoa(s.hashed)).Finish()
}

// runGroupers scans rows [lo,hi) into one grouper per plan (the scan's
// own plans, or some of its split parts') and returns the merged
// groupers, for callers that finalize (Run and friends) or export
// partition-mergeable partials. It is the engine's one scan loop and
// its one worker pool.
func (s *scan) runGroupers(ctx context.Context, plans []*grouperPlan, lo, hi int) ([]*grouper, error) {
	n := hi - lo
	workers := min(max(s.q.Parallelism, 1), max(n, 1))

	// Each worker owns private groupers — cheap per-worker arenas
	// instantiated from the shared plans — over a grid-aligned row range.
	ranges := [][2]int{{lo, hi}}
	if workers > 1 {
		ranges = splitAligned(lo, hi, workers)
	}
	for len(s.kernels) < len(ranges) {
		sk, err := compileScan(s.t, s.q.Where, s.fs, s.smp)
		if err != nil {
			return nil, err
		}
		s.kernels = append(s.kernels, sk)
	}
	s.e.count(ctx, 0, int64(n))
	s.passes++
	s.scanned += n
	if s.st != nil {
		s.st.rowsScanned.Add(int64(n))
	}

	partials := make([][]*grouper, len(ranges))
	for w := range partials {
		partials[w] = newGroupers(plans)
	}
	if len(ranges) == 1 {
		if err := s.kernels[0].scanPartition(ctx, lo, hi, partials[0]); err != nil {
			return nil, err
		}
		return partials[0], nil
	}

	// Parallel path: partials are merged pairwise at the end. Grid
	// alignment plus exact chunk folding makes the merged state — and
	// therefore the result bytes — independent of the worker count.
	errs := make([]error, len(ranges))
	fanOut(len(ranges), func(w int) {
		errs[w] = s.kernels[w].scanPartition(ctx, ranges[w][0], ranges[w][1], partials[w])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := partials[0]
	for w := 1; w < len(ranges); w++ {
		for i := range merged {
			merged[i].mergeFrom(partials[w][i])
		}
	}
	return merged, nil
}

// fanOut runs f(0) … f(n-1) on n goroutines and waits for them all: the
// scan's workers, for its row ranges and for the cells it digests.
func fanOut(n int, f func(w int)) {
	if n == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	for w := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	wg.Wait()
}

// export scans rows [lo,hi) and exports the state as ONE partial per
// plan.
func (s *scan) export(ctx context.Context, plans []*grouperPlan, lo, hi int) ([]*Partial, error) {
	groupers, err := s.runGroupers(ctx, plans, lo, hi)
	if err != nil {
		return nil, err
	}
	out := make([]*Partial, len(groupers))
	for i, g := range groupers {
		out[i] = g.partial()
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Scan driver

// scanKernels holds one scan goroutine's compiled predicate kernels and
// chunk-local scratch (bitmaps, per-row-set selection vectors, gathered
// measure values and compacted slots). Not safe for concurrent use:
// parallel scans compile one per worker.
type scanKernels struct {
	where   kernelFn // nil when there is no WHERE clause
	filters []kernelFn
	smp     *sampler
	rowSets []rowSet
	meas    [][]measCol

	match   [kernelWords]uint64
	smpBits [kernelWords]uint64
	setBits [kernelWords]uint64
	fbits   [][]uint64
	rows    []rowSel // the current chunk's rows, per row set
	// need[i] lists the meas[i] columns the partition's groupers read;
	// gathers[i] counts the columns gathered for row set i, chunk by
	// chunk, over the kernels' life.
	need    [][]int
	gathers []int
}

// compileScan compiles the query's WHERE predicate and the deduplicated
// per-aggregate filters for table t. fs must already carry every row
// set the scan's plans registered (see bindAggs).
func compileScan(t *Table, where Predicate, fs *filterSet, smp *sampler) (*scanKernels, error) {
	sk := &scanKernels{smp: smp, rowSets: fs.rowSets, meas: fs.meas}
	if where != nil {
		k, err := compileKernel(where, t)
		if err != nil {
			return nil, err
		}
		sk.where = k
	}
	for _, p := range fs.preds {
		k, err := compileKernel(p, t)
		if err != nil {
			return nil, err
		}
		sk.filters = append(sk.filters, k)
		sk.fbits = append(sk.fbits, make([]uint64, kernelWords))
	}
	sk.rows = make([]rowSel, len(sk.rowSets))
	for i := range sk.rows {
		sk.rows[i].sel = make([]int32, 0, ChunkRows)
	}
	sk.need = make([][]int, len(sk.rowSets))
	sk.gathers = make([]int, len(sk.rowSets))
	return sk, nil
}

// scanPartition drives rows [lo,hi) chunk-at-a-time: evaluate the
// sample and WHERE bitmaps, evaluate each shared filter bitmap once,
// cut every row set's rows out of them word-wise (match ∧ filter ∧ ¬NULL
// → selection vector), gather the measure values the groupers read at
// the rows of each set that does not hold every row, and feed every
// grouper the chunk. No accumulator probes a bitmap or indirects through
// a selection vector per row, and rows reach accumulators in ascending
// order, chunk by grid cell.
func (sk *scanKernels) scanPartition(ctx context.Context, lo, hi int, groupers []*grouper) error {
	sk.want(groupers)
	for start := lo; start < hi; {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("engine: scan cancelled: %w", err)
		}
		end := min(hi, chunkStart(chunkOf(start)+1))
		n := end - start
		nw := (n + 63) / 64
		match := sk.match[:nw]
		if sk.where != nil {
			sk.where(start, n, match)
		} else {
			onesFill(match, n)
		}
		if sk.smp != nil {
			sk.smp.fillSampleBits(start, n, sk.smpBits[:nw])
			for i := range match {
				match[i] &= sk.smpBits[i]
			}
		}
		sk.extract(0, match, n)
		if all := &sk.rows[0]; all.dense || len(all.sel) > 0 {
			for i, k := range sk.filters {
				k(start, n, sk.fbits[i][:nw])
			}
			for i, rs := range sk.rowSets[1:] {
				w := sk.setBits[:nw]
				copy(w, match)
				if rs.filter >= 0 {
					for j, f := range sk.fbits[rs.filter][:nw] {
						w[j] &= f
					}
				}
				if rs.nulls != nil {
					rs.nulls.andNotInto(start, n, w)
				}
				sk.extract(i+1, w, n)
			}
			for i := range sk.rows {
				if !sk.rows[i].dense {
					sk.gather(i, start)
				}
			}
			for _, g := range groupers {
				g.processChunk(start, n, sk.rows)
			}
		}
		start = end
	}
	return nil
}

// want records which measure columns the groupers read over each row
// set.
func (sk *scanKernels) want(groupers []*grouper) {
	for i := range sk.need {
		sk.need[i] = sk.need[i][:0]
	}
	for _, g := range groupers {
		p := g.plan
		for i := range p.phys {
			pa := &p.phys[i]
			if set := p.rowSets[pa.rows]; pa.kind != measCount && !slices.Contains(sk.need[set], pa.meas) {
				sk.need[set] = append(sk.need[set], pa.meas)
			}
		}
	}
}

// extract turns a row-set bitmap into the chunk's rowSel: dense when
// every one of the n rows is set (consumers then stream column slices
// and never read sel), else the ascending offsets of the set bits.
func (sk *scanKernels) extract(set int, words []uint64, n int) {
	r := &sk.rows[set]
	count := 0
	for _, w := range words {
		count += bits.OnesCount64(w)
	}
	if r.dense = count == n; r.dense {
		return
	}
	r.sel = extractSel(words, r.sel[:0])
	if r.slots == nil {
		r.slots = make([]int32, ChunkRows)
	}
}

// gather copies the values of each measure column the groupers read over
// row set set at its rows, chunk from absolute row start, into the
// set's rowSel, once for every grouper.
func (sk *scanKernels) gather(set, start int) {
	r := &sk.rows[set]
	if r.vals == nil {
		r.vals = make([][]float64, len(sk.meas[set]))
	}
	for _, m := range sk.need[set] {
		if r.vals[m] == nil {
			r.vals[m] = make([]float64, 0, ChunkRows)
		}
		if mc := &sk.meas[set][m]; mc.f64 != nil {
			r.vals[m] = gatherAt(r.vals[m], mc.f64[start:], r.sel)
		} else {
			r.vals[m] = gatherAt(r.vals[m], mc.i64[start:], r.sel)
		}
	}
	sk.gathers[set] += len(sk.need[set])
}

// gatherAt returns dst holding float64(vals[off]) for each off in sel.
func gatherAt[T int64 | float64](dst []float64, vals []T, sel []int32) []float64 {
	dst = dst[:len(sel)]
	for j, off := range sel {
		dst[j] = float64(vals[off])
	}
	return dst
}
