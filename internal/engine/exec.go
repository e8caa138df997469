package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// OrderKey is one ORDER BY term.
type OrderKey struct {
	Column string
	Desc   bool
}

// Query is a physical aggregation query: scan Table, keep rows passing
// the Bernoulli sample and the WHERE predicate, group by the GroupBy
// attributes (composite key), and compute the aggregates. It is the
// shape of every query SeeDB's optimizer emits.
type Query struct {
	Table string
	// Where filters rows before grouping; nil means all rows.
	Where Predicate
	// SampleFraction in (0,1) applies Bernoulli sampling before the
	// WHERE clause; values outside the range disable sampling.
	SampleFraction float64
	// SampleSeed makes the sample deterministic.
	SampleSeed uint64
	// SampleBase is the absolute row index this table's row 0 maps to.
	// Single-node tables leave it 0; a cluster worker scanning a
	// placement fragment sets it to the fragment's first absolute row so
	// the Bernoulli sample picks exactly the rows a single-node scan of
	// the full table would pick in that range.
	SampleBase int
	// GroupBy lists grouping attributes; empty means one global group.
	GroupBy []string
	// Aggs lists the aggregate outputs; must be non-empty.
	Aggs []AggSpec
	// OrderBy optionally orders the result rows.
	OrderBy []OrderKey
	// Limit truncates the result when > 0.
	Limit int
	// Parallelism partitions the scan across workers when > 1.
	Parallelism int
	// Shards asks a cluster backend to scatter the query across this
	// many horizontal partitions; 0 keeps the backend's configured
	// layout. The in-process executor ignores it — results are
	// partition-invariant by construction, so the hint only affects
	// where the work runs, never what comes back.
	Shards int
	// RowLo/RowHi restrict the scan to rows [RowLo, RowHi) when RowHi > 0.
	// SeeDB's phased execution uses ranges to stream the table in
	// chunks, the way a wrapper would page through ctid ranges.
	RowLo int
	RowHi int
	// BinWidths optionally bins numeric or timestamp grouping columns:
	// a column listed here groups by floor(value/width)·width and the
	// result key is the bin's lower bound. This is the "binning"
	// operation of the paper's §1 analysis workflow, applied to
	// continuous dimensions.
	BinWidths map[string]float64
}

// ExecStats counts an executor's work — all of it (Executor.Stats) or
// one call's (Executor.WithTally) — so the experiments can show *why*
// an optimization wins (fewer table scans, fewer rows read).
type ExecStats struct {
	Queries    atomic.Int64 // logical queries executed
	TableScans atomic.Int64 // physical scans performed (grouping sets share one)
	RowsRead   atomic.Int64 // rows visited across all scans
}

// Snapshot returns the current counter values.
func (s *ExecStats) Snapshot() (queries, scans, rows int64) {
	return s.Queries.Load(), s.TableScans.Load(), s.RowsRead.Load()
}

// Reset zeroes the counters.
func (s *ExecStats) Reset() {
	s.Queries.Store(0)
	s.TableScans.Store(0)
	s.RowsRead.Store(0)
}

func (s *ExecStats) add(scans, rows int64) {
	s.Queries.Add(scans)
	s.TableScans.Add(scans)
	s.RowsRead.Add(rows)
}

// Executor runs queries against tables in a Catalog.
type Executor struct {
	cat   *Catalog
	stats ExecStats

	// pstore, when set, enables incremental execution: a scan reuses the
	// plan's stored run and only visits the rows it does not cover (see
	// PartialStore). Atomic so it can be installed on a live executor.
	pstore atomic.Pointer[PartialStore]
}

// NewExecutor returns an executor over the catalog.
func NewExecutor(cat *Catalog) *Executor { return &Executor{cat: cat} }

// Catalog returns the backing catalog.
func (e *Executor) Catalog() *Catalog { return e.cat }

// Stats returns the executor's counters.
func (e *Executor) Stats() *ExecStats { return &e.stats }

// WithTally returns ctx carrying a fresh per-call tally: every query
// this executor runs under the returned context is counted there as
// well as in Stats, so concurrent callers each see only their own work.
// The context key is the executor itself, so the tally counts what
// Stats counts — another executor reached with the same context (an
// in-process cluster member) keeps its work to itself, as an HTTP
// worker does.
func (e *Executor) WithTally(ctx context.Context) (context.Context, *ExecStats) {
	t := new(ExecStats)
	return context.WithValue(ctx, e, t), t
}

// count charges scans and rows to Stats and to the call's tally.
func (e *Executor) count(ctx context.Context, scans, rows int64) {
	e.stats.add(scans, rows)
	if t, ok := ctx.Value(e).(*ExecStats); ok {
		t.add(scans, rows)
	}
}

// SetPartialStore installs (or, with nil, removes) the partial store,
// switching aggregation queries to incremental execution. Safe on a
// live executor; in-flight queries keep the store they started with.
func (e *Executor) SetPartialStore(s *PartialStore) { e.pstore.Store(s) }

// PartialStore returns the installed partial store, if any.
func (e *Executor) PartialStore() *PartialStore { return e.pstore.Load() }

// GroupingSet pairs one grouping-attribute list with the aggregates to
// compute for it. RunSharedScan evaluates many GroupingSets in a
// single pass over the table — the engine primitive behind SeeDB's
// "combine multiple group-bys" optimization: each view family keeps
// its own (smaller) aggregate list while sharing the scan.
type GroupingSet struct {
	By   []string
	Aggs []AggSpec
	// BinWidths bins numeric/timestamp grouping columns (see
	// Query.BinWidths).
	BinWidths map[string]float64
}

// Run executes a single aggregation query.
func (e *Executor) Run(ctx context.Context, q *Query) (*Result, error) {
	results, err := e.runSets(ctx, q, []GroupingSet{{By: q.GroupBy, Aggs: q.Aggs, BinWidths: q.BinWidths}})
	if err != nil {
		return nil, err
	}
	res := results[0]
	if len(q.OrderBy) > 0 {
		if err := res.sortBy(q.OrderBy); err != nil {
			return nil, err
		}
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

// RunGroupingSets executes one scan that simultaneously groups by every
// attribute list in sets, returning one result per set (in order), all
// computing the query's aggregate list — SQL GROUPING SETS semantics.
func (e *Executor) RunGroupingSets(ctx context.Context, q *Query, sets [][]string) ([]*Result, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("engine: RunGroupingSets needs at least one set")
	}
	gsets := make([]GroupingSet, len(sets))
	for i, by := range sets {
		gsets[i] = GroupingSet{By: by, Aggs: q.Aggs, BinWidths: q.BinWidths}
	}
	return e.runSets(ctx, q, gsets)
}

// RunSharedScan executes one scan that feeds every grouping set, each
// with its own aggregate list. q.GroupBy and q.Aggs are ignored; the
// rest of the query (table, where, sampling, row range, parallelism)
// applies to the shared scan.
func (e *Executor) RunSharedScan(ctx context.Context, q *Query, gsets []GroupingSet) ([]*Result, error) {
	if len(gsets) == 0 {
		return nil, fmt.Errorf("engine: RunSharedScan needs at least one grouping set")
	}
	return e.runSets(ctx, q, gsets)
}

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

// Sort orders the result rows by the given keys (exported for the
// cluster coordinator, which applies ORDER BY after merging shards).
func (r *Result) Sort(keys []OrderKey) error { return r.sortBy(keys) }

// runSets is the shared implementation: one scan, many groupers. With
// a partial store that applies to the range, the scan is answered from
// the plan's stored run plus whatever the run does not cover
// (identical bytes, see scan.partials).
func (e *Executor) runSets(ctx context.Context, q *Query, gsets []GroupingSet) ([]*Result, error) {
	s, err := e.bindScan(ctx, q, gsets, true)
	if err != nil {
		return nil, err
	}
	defer s.t.mu.RUnlock()
	if s.st == nil {
		groupers, err := s.runGroupers(ctx, s.plans, s.lo, s.hi)
		if err != nil {
			return nil, err
		}
		return finalizeGroupers(groupers)
	}
	ps, err := s.partials(ctx)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(ps))
	for i, p := range ps {
		results[i] = p.Finalize()
	}
	return results, nil
}

// scan is one query bound to its table: the validated row range, the
// plans (bound aggregates, key encoders, fast group layout — built ONCE
// per query and shared read-only by every worker and every piece of the
// range), and the compiled kernels. It lives exactly as long as the
// table's read lock, which bindScan takes and the caller releases.
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

	// st is the partial store when it applies to this range — installed,
	// and [lo,hi) contains at least one sealed grid cell — else nil.
	// [a,ahi) is then the range's sealed body: the whole cells inside it.
	// parts are the runs the body's state is kept in and zips, when the
	// scan is split, how each set's partial is put back together from
	// them (see splitParts); digests memoizes runDigest.
	st      *PartialStore
	a, ahi  int
	parts   []*runPart
	zips    []setZip
	digests map[int]string
}

// bindScan validates (q, gsets) against the table, read-locks it and
// builds everything a scan of the query's range needs; one kernel set is
// compiled up front so an invalid predicate fails the query whether or
// not a stored run happens to cover its rows. It counts the logical
// query once, however many pieces the range is later scanned in. On
// success the caller owns the read lock on s.t. resultsOnly licenses
// slim accumulator updates that skip state finalization never reads
// (see bindAggs); it is ignored when the store applies, because a
// stored run is exported partials.
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
	return s, nil
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
	var wg sync.WaitGroup
	for w, rng := range ranges {
		wg.Add(1)
		go func(w, wlo, whi int) {
			defer wg.Done()
			errs[w] = s.kernels[w].scanPartition(ctx, wlo, whi, partials[w])
		}(w, rng[0], rng[1])
	}
	wg.Wait()
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
	// sample and WHERE); bindAggs appends the rest.
	rowSets []rowSet
}

// rowSet names the rows one or more physical accumulators consume: the
// scan's selected rows, restricted to one shared filter and stripped of
// one measure column's NULL rows.
type rowSet struct {
	filter int         // index into filterSet.preds; -1 = unfiltered
	nulls  *nullBitmap // NULL rows to drop; nil = none
}

func buildFilterSet(gsets []GroupingSet) *filterSet {
	fs := &filterSet{index: map[Predicate]int{}, rowSets: []rowSet{{filter: -1}}}
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
	return len(fs.rowSets) - 1
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

// ---------------------------------------------------------------------
// grouper plan: per-query bound state for one grouping-attribute list

// boundAgg is one logical aggregate of a grouping set — an output
// column of its Result and Partial — bound to a table.
type boundAgg struct {
	spec      AggSpec
	filterIdx int // -1 when unfiltered

	// phys indexes the physical accumulator (grouperPlan.phys) that
	// holds this aggregate's state.
	phys int
}

// measKind classifies what a physical accumulator reads per row.
type measKind uint8

const (
	measCount measKind = iota // no value: COUNT(*) or COUNT over a non-numeric column
	measFloat                 // FLOAT measure, direct slice access
	measInt                   // INT measure, converted per row
)

// physAgg is one physical accumulator of a grouping set: the state of
// one (measure column, filter) pair. An accumulator's state depends
// only on which rows reach it and what values they carry, never on the
// aggregate function, so SUM(m), COUNT(m), AVG(m), MIN(m)… over the
// same filter all read one physical accumulator: the scan updates
// physical state once per row, partial() exports it once, and result()
// and Partial.Finalize fan it back out per logical aggregate.
type physAgg struct {
	col  string // measure column; "" for COUNT(*)
	kind measKind
	f64  []float64
	i64  []int64

	// rows indexes grouperPlan.rowSets: the rows this accumulator
	// consumes. The per-group row count of that set IS the accumulator's
	// count, so accumulators over one row set share one counter.
	rows int

	// full keeps sumsq/min/max/seen besides the sum. Slim suffices when
	// every user is a result-only COUNT/SUM/AVG; exported partials
	// serialize the whole state, so they always bind full.
	full bool

	// presence marks COUNT over a non-numeric column, whose state is
	// seen with min = max = 0 (what adding a zero per row leaves behind);
	// COUNT(*) never sets seen.
	presence bool
}

// bindAggs binds a grouping set's aggregates: the logical list in
// output order, and the deduplicated physical accumulators behind it.
// rowSets lists the scan row sets (indices into fs.rowSets) those
// accumulators consume.
func bindAggs(t *Table, aggs []AggSpec, fs *filterSet, resultsOnly bool) (logical []boundAgg, phys []physAgg, rowSets []int, err error) {
	type physKey struct {
		column string
		filter int
	}
	byKey := map[physKey]int{}
	localRows := func(rs rowSet) int {
		global := fs.rowSetIndex(rs)
		for i, have := range rowSets {
			if have == global {
				return i
			}
		}
		rowSets = append(rowSets, global)
		return len(rowSets) - 1
	}
	logical = make([]boundAgg, len(aggs))
	for i, a := range aggs {
		ba := boundAgg{spec: a, filterIdx: -1}
		if a.Filter != nil {
			idx, ok := fs.index[a.Filter]
			if !ok {
				return nil, nil, nil, fmt.Errorf("engine: internal: filter for %s not registered", a.Name())
			}
			ba.filterIdx = idx
		}
		pa := physAgg{col: a.Column, kind: measCount}
		rs := rowSet{filter: ba.filterIdx}
		if a.Column == "" {
			if a.Func != AggCount {
				return nil, nil, nil, fmt.Errorf("engine: %s requires a column", a.Func)
			}
		} else {
			col, err := t.Column(a.Column)
			if err != nil {
				return nil, nil, nil, err
			}
			if a.Func != AggCount && !col.Type().Numeric() {
				return nil, nil, nil, fmt.Errorf("engine: %s(%s): column is %v, need numeric", a.Func, a.Column, col.Type())
			}
			switch c := col.(type) {
			case *FloatColumn:
				pa.kind, pa.f64, rs.nulls = measFloat, c.Floats(), activeNulls(&c.nulls)
			case *IntColumn:
				pa.kind, pa.i64, rs.nulls = measInt, c.Ints(), activeNulls(&c.nulls)
			default:
				nb := columnNulls(t, a.Column)
				if nb == nil {
					return nil, nil, nil, fmt.Errorf("engine: cannot aggregate column %q: unsupported column kind %T", a.Column, col)
				}
				pa.presence, rs.nulls = true, activeNulls(nb)
			}
		}
		key := physKey{a.Column, ba.filterIdx}
		pi, ok := byKey[key]
		if !ok {
			pi = len(phys)
			byKey[key] = pi
			pa.rows = localRows(rs)
			phys = append(phys, pa)
		}
		slimUser := resultsOnly && (a.Func == AggCount || a.Func == AggSum || a.Func == AggAvg)
		if !slimUser {
			phys[pi].full = true
		}
		ba.phys = pi
		logical[i] = ba
	}
	return logical, phys, rowSets, nil
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

// rowSel is one row set's rows within the current chunk: ascending
// in-chunk offsets, or — dense — every row of the chunk, so consumers
// stream column slices directly instead of indirecting through sel.
type rowSel struct {
	sel   []int32
	dense bool
}

// fillCodes writes the dense code of each row in r (absolute row
// start+off) to out[off]. n is the chunk's row count.
func (k *fastKey) fillCodes(start, n int, r rowSel, out []int32) {
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
	// filtered accumulators (see splitParts).
	groupRows int

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

// ---------------------------------------------------------------------
// grouper: aggregation state for one grouping-attribute list

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

	// stamp[slot] is 0 until the group first appears, then the epoch of
	// the last chunk that touched the slot (liveStamp after a merge).
	stamp []uint32

	// generic path
	buf  []byte
	m    map[string]int
	keys [][]Value

	// cnt[i][slot] counts the group's rows in plan.rowSets[i]; cols[p]
	// is physical accumulator p. slots, codes, touched and epoch are
	// per-chunk scratch.
	cnt     [][]int64
	cols    []physCols
	slots   []int32 // in-chunk offset -> slot
	codes   []int32 // second key's codes (two-key fast layouts)
	touched []int32 // slots touched by the current chunk
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

// liveStamp marks a group as existing without claiming any chunk epoch
// (epochs start above it).
const liveStamp = 1

// newGrouper instantiates an empty arena over the plan.
func (p *grouperPlan) newGrouper() *grouper {
	g := &grouper{plan: p, epoch: liveStamp}
	if p.fast == nil {
		g.m = make(map[string]int)
	}
	g.cnt = make([][]int64, len(p.rowSets))
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

// keyEncoder appends row's key bytes for one column and materializes
// the boxed key value. Encoders are stateless and shared via the plan.
type keyEncoder struct {
	encode func(row int, buf []byte) []byte
	value  func(row int) Value
}

// binFloor returns the lower bound of v's bin for the given width.
func binFloor(v, width float64) float64 { return math.Floor(v/width) * width }

// canonFloat maps every float that prints — and compares — as the same
// group key to one bit pattern: -0 becomes +0 (binFloor(-0, w) is -0)
// and every NaN becomes the canonical one. Group identity is decided on
// key bytes, so without this one visible key could head several groups.
func canonFloat(v float64) float64 {
	if v == 0 {
		return 0
	}
	if v != v {
		return math.NaN()
	}
	return v
}

func appendU64(buf []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(buf, tmp[:]...)
}

func newKeyEncoder(col Column, binWidth float64) (keyEncoder, error) {
	switch c := col.(type) {
	case *StringColumn:
		codes := c.Codes()
		return keyEncoder{
			encode: func(row int, buf []byte) []byte {
				var tmp [4]byte
				binary.LittleEndian.PutUint32(tmp[:], uint32(codes[row]))
				return append(buf, tmp[:]...)
			},
			value: func(row int) Value { return c.Value(row) },
		}, nil
	case *IntColumn:
		return int64KeyEncoder(c.Ints(), activeNulls(&c.nulls), binWidth, TypeInt), nil
	case *TimeColumn:
		return int64KeyEncoder(c.Nanos(), activeNulls(&c.nulls), binWidth, TypeTime), nil
	case *FloatColumn:
		vals := c.Floats()
		nb := activeNulls(&c.nulls)
		bin := canonFloat
		if binWidth > 0 {
			width := binWidth
			bin = func(v float64) float64 { return canonFloat(binFloor(v, width)) }
		}
		if nb == nil {
			// No NULLs: skip the per-row null check entirely.
			return keyEncoder{
				encode: func(row int, buf []byte) []byte {
					return append(appendU64(buf, math.Float64bits(bin(vals[row]))), 0)
				},
				value: func(row int) Value { return Float(bin(vals[row])) },
			}, nil
		}
		return keyEncoder{
			encode: func(row int, buf []byte) []byte {
				if nb.get(row) {
					return append(appendU64(buf, 0), 1)
				}
				return append(appendU64(buf, math.Float64bits(bin(vals[row]))), 0)
			},
			value: func(row int) Value {
				if nb.get(row) {
					return NullValue(TypeFloat)
				}
				return Float(bin(vals[row]))
			},
		}, nil
	}
	// A silent catch-all here once collapsed every row of an unknown
	// column kind into one bogus group (empty key bytes, NULL value);
	// unknown kinds are a planning error, not a degenerate group-by.
	return keyEncoder{}, fmt.Errorf("engine: cannot group by column %q: unsupported column kind %T", col.Name(), col)
}

// int64KeyEncoder builds the key encoder for INT/TIME columns. Integral
// bins: width rounded up to at least 1 so bin lower bounds stay
// integers. The null branch is resolved once here, not per row.
func int64KeyEncoder(vals []int64, nb *nullBitmap, binWidth float64, typ Type) keyEncoder {
	w := int64(binWidth)
	if w < 1 {
		w = 1
	}
	lower := func(v int64) int64 { return v }
	if w > 1 {
		lower = func(v int64) int64 { return floorDiv(v, w) * w }
	}
	mk := func(v int64) Value { return Int(v) }
	if typ == TypeTime {
		mk = func(v int64) Value { return Value{Kind: TypeTime, I: v} }
	}
	if nb == nil {
		return keyEncoder{
			encode: func(row int, buf []byte) []byte {
				return append(appendU64(buf, uint64(lower(vals[row]))), 0)
			},
			value: func(row int) Value { return mk(lower(vals[row])) },
		}
	}
	return keyEncoder{
		encode: func(row int, buf []byte) []byte {
			if nb.get(row) {
				return append(appendU64(buf, 0), 1)
			}
			return append(appendU64(buf, uint64(lower(vals[row]))), 0)
		},
		value: func(row int) Value {
			if nb.get(row) {
				return NullValue(typ)
			}
			return mk(lower(vals[row]))
		},
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
// extracted once for all groupers. Each accumulator sees its values in
// ascending row order, sums them from zero within the chunk, and folds
// the chunk sum exactly — so the folded state is a function of the rows
// and the grid alone.
func (g *grouper) processChunk(start, n int, rows []rowSel) {
	p := g.plan
	all := rows[p.groupRows]

	// Every such row's slot, computed once for all accumulators (their
	// row sets lie inside groupRows). With no keys every slot is 0, as
	// allocated.
	slots := g.slots
	if p.fast != nil {
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
	} else {
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

	// Mark group existence and collect the slots this chunk touches.
	g.epoch++
	epoch, stamp, touched := g.epoch, g.stamp, g.touched[:0]
	if all.dense {
		for _, s := range slots[:n] {
			if stamp[s] != epoch {
				stamp[s] = epoch
				touched = append(touched, s)
			}
		}
	} else {
		for _, off := range all.sel {
			if s := slots[off]; stamp[s] != epoch {
				stamp[s] = epoch
				touched = append(touched, s)
			}
		}
	}
	g.touched = touched

	// One counting pass per row set, one summing pass per accumulator.
	for i, ri := range p.rowSets {
		countRows(g.cnt[i], slots, rows[ri], n)
	}
	for i := range p.phys {
		pa, c := &p.phys[i], &g.cols[i]
		r := rows[p.rowSets[pa.rows]]
		switch {
		case pa.kind == measFloat && pa.full:
			addFull(c, pa.f64[start:], slots, r, n)
		case pa.kind == measFloat:
			addSums(c.sum, pa.f64[start:], slots, r, n)
		case pa.kind == measInt && pa.full:
			addFull(c, pa.i64[start:], slots, r, n)
		case pa.kind == measInt:
			addSums(c.sum, pa.i64[start:], slots, r, n)
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

// countRows adds one to cnt[slot] for every row of r.
func countRows(cnt []int64, slots []int32, r rowSel, n int) {
	if r.dense {
		for _, s := range slots[:n] {
			cnt[s]++
		}
		return
	}
	for _, off := range r.sel {
		cnt[slots[off]]++
	}
}

// addSums is the slim per-row update: the chunk sum only.
func addSums[T int64 | float64](sum []float64, vals []T, slots []int32, r rowSel, n int) {
	if r.dense {
		slots = slots[:n]
		for j, v := range vals[:n] {
			sum[slots[j]] += float64(v)
		}
		return
	}
	for _, off := range r.sel {
		sum[slots[off]] += float64(vals[off])
	}
}

// addFull is the full per-row update (the count lives with the row
// set). A NaN is adopted only as a group's first value; stickNaN catches
// the others at chunk end.
func addFull[T int64 | float64](c *physCols, vals []T, slots []int32, r rowSel, n int) {
	sum, sumsq, mn, mx, seen := c.sum, c.sumsq, c.min, c.max, c.seen
	if r.dense {
		slots = slots[:n]
		for j, x := range vals[:n] {
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
		return
	}
	for _, off := range r.sel {
		s, v := slots[off], float64(vals[off])
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
	for slot, st := range g.stamp {
		if st == 0 {
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
	for slot, st := range o.stamp {
		if st != 0 {
			g.mergeSlot(slot, o, slot)
		}
	}
}

// mergeSlot folds o's group oslot into g's group slot.
func (g *grouper) mergeSlot(slot int, o *grouper, oslot int) {
	if g.stamp[slot] == 0 {
		g.stamp[slot] = liveStamp
	}
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

// ---------------------------------------------------------------------
// Scan (projection) and sampling helpers

// Scan returns up to limit rows of the named columns matching where
// (nil = all). It backs the frontend's sample-data panes and the CLI.
func (e *Executor) Scan(ctx context.Context, table string, columns []string, where Predicate, limit int) (*Result, error) {
	t, err := e.cat.Table(table)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()

	if len(columns) == 0 {
		for _, def := range t.Schema() {
			columns = append(columns, def.Name)
		}
	}
	cols := make([]Column, len(columns))
	for i, name := range columns {
		if cols[i], err = t.Column(name); err != nil {
			return nil, err
		}
	}
	var bound BoundPredicate
	if where != nil {
		if bound, err = where.Bind(t); err != nil {
			return nil, err
		}
	}

	res := &Result{Columns: append([]string(nil), columns...)}
	row := 0
	for ; row < t.rows && (limit <= 0 || len(res.Rows) < limit); row++ {
		if row&0x3FFF == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("engine: scan cancelled: %w", err)
			}
		}
		if bound != nil && !bound(row) {
			continue
		}
		out := make([]Value, len(cols))
		for i, c := range cols {
			out[i] = c.Value(row)
		}
		res.Rows = append(res.Rows, out)
	}
	e.count(ctx, 1, int64(row)) // rows visited: a limit stops the scan early
	return res, nil
}

// MaterializeSample builds an in-memory Bernoulli sample of a table.
// The sample is returned (not registered); callers register it under
// the chosen name if they want it query-able. This is the "construct a
// sample of the dataset that can fit in memory" optimization.
func (e *Executor) MaterializeSample(table, name string, fraction float64, seed uint64) (*Table, error) {
	t, err := e.cat.Table(table)
	if err != nil {
		return nil, err
	}
	smp := newSampler(fraction, seed, 0)
	if smp == nil {
		return t.Clone(name), nil
	}
	t.mu.RLock()
	var sel []int32
	for row := 0; row < t.rows; row++ {
		if smp.keep(row) {
			sel = append(sel, int32(row))
		}
	}
	t.mu.RUnlock()
	return t.Gather(name, sel), nil
}
