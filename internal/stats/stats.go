// Package stats implements SeeDB's Metadata Collector (paper §3.1):
// per-column statistics (distinct counts, null counts, value range,
// entropy), pairwise correlation between dimension attributes (Cramér's
// V over contingency tables), and correlation clustering. The pruning
// strategies in internal/core consume these statistics together with
// the access-pattern counters kept by the engine catalog.
//
// A Collector keeps, per table instance, a typed prefix summary of
// every column (summary.go) and one contingency table per attribute
// pair it was asked about (corr.go). Both cover rows [0, n) and are
// read straight off the columns' backing slices — dictionary codes,
// int64s, float bits; no boxed value, no formatted label, no string
// key. Tables are append-only, so a query after an append extends the
// state by the appended rows alone, in row order, and what it then
// finalizes is bit for bit what a cold collection over the same rows
// returns: the counts are equal integers, and every float pass over
// them (entropy, χ²) runs in an order the rows alone determine. The
// state is built lazily, inside Stats, Describe and
// CorrelationClusters only; nothing is computed at registration or
// append time, and nothing is persisted.
//
// Every column summary and every contingency table is state of its
// own, so an extension by at least parallelRows rows — a table's first
// collection — summarizes the columns, and then counts the pairs, on up
// to GOMAXPROCS goroutines (fanOut); the answers do not depend on how
// many. A string or window-coded int column tallies a batch's codes
// into a per-summary delta and folds each touched code into its counts
// once per batch, so a batch costs its rows plus the codes it touched,
// never the column's cardinality.
package stats

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"seedb/internal/engine"
)

// ValueCount is one (value, frequency) pair.
type ValueCount struct {
	Value string
	Count int
}

// ColumnStats summarizes one column.
type ColumnStats struct {
	Name     string
	Type     engine.Type
	Rows     int
	Nulls    int
	Distinct int // distinct non-null values

	// Min and Max span the non-null values of an int, float or timestamp
	// column (timestamps in Unix nanoseconds). A float column's NaN and
	// ±Inf values are left out; both are 0 when nothing is left.
	Min float64
	Max float64

	// Entropy is the Shannon entropy (nats) of the value-frequency
	// distribution; NormEntropy = Entropy / ln(Distinct) lies in [0,1]
	// and is 0 when Distinct <= 1. SeeDB's variance-based pruning uses
	// NormEntropy for categorical dimensions ("consider the extreme
	// case where an attribute only takes a single value").
	Entropy     float64
	NormEntropy float64

	// TopValues holds the most frequent values (up to 5), for the
	// frontend's metadata pane. Only Describe and Collect fill it.
	TopValues []ValueCount
}

// IsDimension reports whether the column can act as a grouping
// attribute: strings, ints and timestamps with at most maxDistinct
// distinct values.
func (c *ColumnStats) IsDimension(maxDistinct int) bool {
	switch c.Type {
	case engine.TypeString, engine.TypeInt, engine.TypeTime:
		return c.Distinct > 0 && c.Distinct <= maxDistinct
	default:
		return false
	}
}

// IsMeasure reports whether the column can act as an aggregation
// measure (numeric).
func (c *ColumnStats) IsMeasure() bool { return c.Type.Numeric() }

// TableStats summarizes a table.
type TableStats struct {
	Table   string
	Rows    int
	Columns map[string]*ColumnStats
}

// Column returns stats for the named column or an error.
func (t *TableStats) Column(name string) (*ColumnStats, error) {
	c, ok := t.Columns[name]
	if !ok {
		return nil, fmt.Errorf("stats: no statistics for column %q of table %q", name, t.Table)
	}
	return c, nil
}

// Collector serves table statistics and correlation clusterings from
// per-table accumulated state, the way SeeDB's metadata collector
// amortizes metadata queries across requests. State is keyed by table
// instance (engine.Table.Identity) and tagged with the rows it covers,
// so a reloaded table — even one reusing a name — starts afresh and an
// appended one is extended. It lives until Invalidate.
type Collector struct {
	mu     sync.Mutex
	tables map[string]*tableState
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{tables: map[string]*tableState{}}
}

// tableState is the accumulated statistics state of one table
// instance. mu serializes collection: concurrent callers queue behind
// the first, which leaves them nothing to do.
type tableState struct {
	mu    sync.Mutex
	rows  int                   // rows the summaries cover
	cols  []colSummary          // by column position
	pairs map[[2]int]*pairTable // by column positions, in the order asked

	// Finalized forms of the summaries at rows; nil until asked for.
	stats     *TableStats
	described *TableStats

	// Cells read so far by summary and by pair extension: the cost model
	// the tests hold the collector to.
	cellVisits, pairVisits int
}

func (c *Collector) stateFor(t *engine.Table) *tableState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.tables[t.Identity()]
	if !ok {
		st = &tableState{cols: make([]colSummary, t.NumCols()), pairs: map[[2]int]*pairTable{}}
		c.tables[t.Identity()] = st
	}
	return st
}

// view runs f on the table's state with the state locked and the
// table's read lock held, passing the row count read inside that scope:
// the prefix f extends to, the dictionaries it reads and the row count
// it reports all describe one version of the table, and a concurrent
// append can never tear a column mid-scan.
func (c *Collector) view(t *engine.Table, f func(st *tableState, rows int)) {
	st := c.stateFor(t)
	st.mu.Lock()
	defer st.mu.Unlock()
	t.View(func() {
		rows := 0
		if t.NumCols() > 0 {
			rows = t.ColumnAt(0).Len()
		}
		f(st, rows)
	})
}

// extend folds rows [st.rows, rows) of every column into the summaries
// and finalizes them, one column per fanOut call.
func (st *tableState) extend(t *engine.Table, rows int) {
	if st.stats != nil && rows == st.rows {
		return
	}
	cols := make([]*ColumnStats, len(st.cols))
	fanOut(len(st.cols), rows-st.rows, func(i int) {
		col := t.ColumnAt(i)
		st.cols[i].extend(col, st.rows, rows)
		cols[i] = st.cols[i].finalize(col, rows)
	})
	ts := &TableStats{Table: t.Name(), Rows: rows, Columns: make(map[string]*ColumnStats, len(st.cols))}
	for _, cs := range cols {
		ts.Columns[cs.Name] = cs
	}
	st.cellVisits += (rows - st.rows) * len(st.cols)
	st.rows, st.stats, st.described = rows, ts, nil
}

// parallelRows is the fewest new rows for which fanOut leaves the
// calling goroutine: an append-sized extension spawns nothing.
const parallelRows = 16 << 10

// fanOut calls f(0), …, f(n-1), each reading rows new rows, on up to
// GOMAXPROCS goroutines (the caller's among them) and returns when all
// have returned. Calls must touch disjoint state; results depend on
// nothing but i, so they are the same at any worker count.
func fanOut(n, rows int, f func(i int)) {
	workers := min(n, runtime.GOMAXPROCS(0))
	if rows < parallelRows || workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			f(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// Stats returns the statistics of the table as it stands. The first
// call on a table summarizes its columns side by side on the fan-out,
// each in one pass that folds the batch's counts once per touched code;
// a call after an append reads the appended rows only; a call with
// nothing new returns the previous result. TopValues is not filled: see
// Describe.
func (c *Collector) Stats(t *engine.Table) *TableStats {
	var ts *TableStats
	c.view(t, func(st *tableState, rows int) {
		st.extend(t, rows)
		ts = st.stats
	})
	return ts
}

// Describe is Stats with every column's TopValues filled in, for the
// metadata pane; the per-query path never formats a value label.
func (c *Collector) Describe(t *engine.Table) *TableStats {
	var ts *TableStats
	c.view(t, func(st *tableState, rows int) {
		st.extend(t, rows)
		if st.described == nil {
			st.described = &TableStats{Table: st.stats.Table, Rows: rows, Columns: make(map[string]*ColumnStats, len(st.cols))}
			for i := range st.cols {
				col := t.ColumnAt(i)
				cs := *st.stats.Columns[col.Name()]
				cs.TopValues = st.cols[i].topValues(col)
				st.described.Columns[col.Name()] = &cs
			}
		}
		ts = st.described
	})
	return ts
}

// CorrelationClusters groups the given columns so that any pair with
// Cramér's V ≥ threshold lands in the same cluster (transitively);
// clusters and their members are returned sorted by name. Pairwise V is
// quadratic in attribute count, so each pair's contingency table is
// kept and extended like the column summaries.
func (c *Collector) CorrelationClusters(t *engine.Table, cols []string, threshold float64) ([][]string, error) {
	var out [][]string
	var err error
	c.view(t, func(st *tableState, rows int) {
		schema, idx := t.Schema(), make([]int, len(cols))
		for k, name := range cols {
			if idx[k] = schema.ColumnIndex(name); idx[k] < 0 {
				_, err = t.Column(name)
				return
			}
		}
		st.extend(t, rows)
		out = st.clusters(t, idx, cols, threshold, rows)
	})
	return out, err
}

// Invalidate drops the state kept for every instance of the named table
// (of every table when name is empty); a table whose name merely starts
// with name+"#" keeps its state. Keying by table instance already
// prevents stale reads; Invalidate reclaims the memory of dropped tables.
func (c *Collector) Invalidate(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id := range c.tables {
		// An identity is the name, '#' and a decimal instance number.
		if name == "" || id[:strings.LastIndexByte(id, '#')] == name {
			delete(c.tables, id)
		}
	}
}
