package engine

import (
	"context"
	"fmt"
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
	defer s.close()
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
