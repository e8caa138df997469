package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	mbits "math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// ColumnDef describes one column of a table schema.
type ColumnDef struct {
	Name string
	Type Type
}

// Schema is an ordered list of column definitions.
type Schema []ColumnDef

// ColumnIndex returns the position of the named column, or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// tableIDs hands every Table instance a process-unique identity, so
// that two distinct tables which happen to share a name (for example
// after a drop + reload cycle) can never be confused by fingerprint
// consumers such as the service layer's view-result cache.
var tableIDs atomic.Uint64

// Table is an in-memory columnar table. All rows are append-only; SeeDB
// is a read-mostly analytical workload so there is no update/delete
// path. A Table is safe for concurrent readers once loading finishes;
// appends take the write lock.
type Table struct {
	name string
	id   uint64

	// version counts mutations (row appends, bulk loads). Together with
	// id it forms the table fingerprint used for cache invalidation:
	// any change to the table's contents changes the fingerprint, so
	// stale cache entries simply become unreachable.
	version atomic.Uint64

	mu     sync.RWMutex
	cols   []Column
	byName map[string]int
	rows   int

	// Content-address memos (see digestCellsLocked, runDigestLocked and
	// RangeContentHash). Entry c of chunkHashes is computed at most once:
	// the table is append-only and the chunk grid is absolute, so once
	// grid cell c is fully populated its contents — and therefore its
	// digest — can never change again. runDigests holds, per anchor
	// cell, the run digest of its first k+1 cells at [k]. chunkMu is only
	// ever acquired while already holding mu (read or write), never the
	// other way around, so it cannot deadlock against the table lock.
	chunkMu            sync.Mutex
	chunkHashes        []digest
	runDigests         map[int][]digest
	tailCell, tailRows int    // the unsealed cell prefix last digested
	tailSum            digest // its digest
	schemaSig          digest // the schema's digest, folded into every cell digest

	// Per-column value-range memo (see int64RangeLocked). Extended
	// incrementally — the table is append-only, so a range covering the
	// first N rows stays a valid prefix forever. rangeMu is only ever
	// acquired while already holding mu, like chunkMu.
	rangeMu   sync.Mutex
	colRanges []colRange
}

// colRange memoizes one column's min/max over non-null rows: min/max
// for INT/TIME columns, fmin/fmax (over finite values) for FLOAT.
type colRange struct {
	rows       int // rows covered so far
	min, max   int64
	fmin, fmax float64
	seen       bool // any non-null (FLOAT: finite) row covered
	nonFinite  bool // FLOAT: some non-null row holds NaN or ±Inf
}

// rangeLocked returns column ci's range memo extended to cover every
// current row via extend(cr, from, to). The caller must hold t.mu (read
// or write).
func (t *Table) rangeLocked(ci int, extend func(cr *colRange, from, to int)) colRange {
	t.rangeMu.Lock()
	defer t.rangeMu.Unlock()
	for len(t.colRanges) < len(t.cols) {
		t.colRanges = append(t.colRanges, colRange{})
	}
	cr := &t.colRanges[ci]
	if cr.rows > t.rows {
		// A failed append rolls columns back to a previously published
		// row count, which this memo never exceeds; recompute defensively
		// if it somehow does.
		*cr = colRange{}
	}
	extend(cr, cr.rows, t.rows)
	cr.rows = t.rows
	return *cr
}

// int64RangeLocked returns min/max over the non-null values of column
// ci (must be an INT or TIME column), memoized per column and extended
// incrementally as the table grows — so the fast group-by layout's
// eligibility check costs O(delta) per query, not O(table). The caller
// must hold t.mu (read or write).
func (t *Table) int64RangeLocked(ci int) (lo, hi int64, any bool) {
	var vals []int64
	var nb *nullBitmap
	switch c := t.cols[ci].(type) {
	case *IntColumn:
		vals, nb = c.vals, &c.nulls
	case *TimeColumn:
		vals, nb = c.vals, &c.nulls
	default:
		return 0, 0, false
	}
	cr := t.rangeLocked(ci, func(cr *colRange, from, to int) {
		hasNulls := nb.anySet()
		for i := from; i < to; i++ {
			if hasNulls && nb.get(i) {
				continue
			}
			v := vals[i]
			if !cr.seen || v < cr.min {
				cr.min = v
			}
			if !cr.seen || v > cr.max {
				cr.max = v
			}
			cr.seen = true
		}
	})
	return cr.min, cr.max, cr.seen
}

// float64RangeLocked is int64RangeLocked for a FLOAT column: min/max
// over its finite non-null values, plus whether any non-null value is
// NaN or ±Inf (such a column has no dense bin-code space).
func (t *Table) float64RangeLocked(ci int) (lo, hi float64, any, nonFinite bool) {
	c, ok := t.cols[ci].(*FloatColumn)
	if !ok {
		return 0, 0, false, false
	}
	cr := t.rangeLocked(ci, func(cr *colRange, from, to int) {
		hasNulls := c.nulls.anySet()
		for i := from; i < to; i++ {
			if hasNulls && c.nulls.get(i) {
				continue
			}
			v := c.vals[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				cr.nonFinite = true
				continue
			}
			if !cr.seen || v < cr.fmin {
				cr.fmin = v
			}
			if !cr.seen || v > cr.fmax {
				cr.fmax = v
			}
			cr.seen = true
		}
	})
	return cr.fmin, cr.fmax, cr.seen, cr.nonFinite
}

// Fingerprint returns a cheap content-version identifier for the
// table: unique per table instance and bumped on every mutation.
// Results computed against one fingerprint are valid exactly as long
// as the table still reports the same fingerprint.
func (t *Table) Fingerprint() string {
	return fmt.Sprintf("%s#%d.%d", t.name, t.id, t.version.Load())
}

// Version returns the table's mutation counter: the number of
// append/load operations applied since creation. Durable snapshots
// persist it (WriteTableSnapshot) and WAL records key on it, so a
// recovered table resumes the sequence instead of restarting at zero.
func (t *Table) Version() uint64 { return t.version.Load() }

// Identity returns the version-free half of Fingerprint: unique per
// table instance, stable across mutations. Incremental consumers (the
// stats collector) key accumulated per-table state on it — the table
// is append-only, so state covering the first N rows stays valid for
// every later version.
func (t *Table) Identity() string {
	return fmt.Sprintf("%s#%d", t.name, t.id)
}

// ContentHash is RangeContentHash over every row. Where Fingerprint is
// a per-instance identity, equal schemas and rows hash equal across
// processes. The cluster layer uses it to verify that a worker's
// replica carries the same rows as the coordinator before trusting its
// partials.
func (t *Table) ContentHash() (string, error) {
	return t.RangeContentHash(0, t.NumRows())
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("engine: table name must not be empty")
	}
	if len(schema) == 0 {
		return nil, fmt.Errorf("engine: table %q needs at least one column", name)
	}
	t := &Table{name: name, id: tableIDs.Add(1), byName: make(map[string]int, len(schema))}
	for i, def := range schema {
		if def.Name == "" {
			return nil, fmt.Errorf("engine: table %q: column %d has empty name", name, i)
		}
		if _, dup := t.byName[def.Name]; dup {
			return nil, fmt.Errorf("engine: table %q: duplicate column %q", name, def.Name)
		}
		t.byName[def.Name] = i
		t.cols = append(t.cols, NewColumn(def.Name, def.Type))
	}
	return t, nil
}

// MustNewTable is NewTable that panics on error; intended for statically
// known schemas in generators and tests.
func MustNewTable(name string, schema Schema) *Table {
	t, err := NewTable(name, schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// NumRows returns the current row count.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// Schema returns a copy of the table schema.
func (t *Table) Schema() Schema {
	s := make(Schema, len(t.cols))
	for i, c := range t.cols {
		s[i] = ColumnDef{Name: c.Name(), Type: c.Type()}
	}
	return s
}

// Column returns the named column, or an error naming the table for
// context.
func (t *Table) Column(name string) (Column, error) {
	i, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("engine: table %q has no column %q", t.name, name)
	}
	return t.cols[i], nil
}

// ColumnAt returns the column at position i.
func (t *Table) ColumnAt(i int) Column { return t.cols[i] }

// HasColumn reports whether the table has a column with the given name.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.byName[name]
	return ok
}

// AppendRow appends one row given in schema order. It is the boxed,
// validating path; generators use the typed Append* methods on columns
// directly for speed (via Loader).
func (t *Table) AppendRow(vals ...Value) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("engine: table %q has %d columns, got %d values", t.name, len(t.cols), len(vals))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, v := range vals {
		if err := t.cols[i].Append(v); err != nil {
			// Roll back the columns already appended so the table stays
			// rectangular.
			for j := 0; j < i; j++ {
				t.cols[j] = truncate(t.cols[j], t.rows)
			}
			return err
		}
	}
	t.rows++
	t.version.Add(1)
	return nil
}

// Append appends a batch of rows (each in schema order) under one
// write-lock acquisition and one version bump — the engine's live-table
// ingest path. On any validation error the table is rolled back to its
// pre-call state and the error reports the offending row. It returns
// the table's new row count.
func (t *Table) Append(rows [][]Value) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.rows
	rollback := func() {
		for i, c := range t.cols {
			if c.Len() > base {
				t.cols[i] = truncate(c, base)
			}
		}
	}
	for ri, vals := range rows {
		if len(vals) != len(t.cols) {
			rollback()
			return t.rows, fmt.Errorf("engine: table %q has %d columns, append row %d has %d values",
				t.name, len(t.cols), ri, len(vals))
		}
		for i, v := range vals {
			if err := t.cols[i].Append(v); err != nil {
				rollback()
				return t.rows, fmt.Errorf("engine: appending row %d to table %q: %w", ri, t.name, err)
			}
		}
	}
	if len(rows) > 0 {
		t.rows = base + len(rows)
		t.version.Add(1)
	}
	return t.rows, nil
}

// AppendTable appends every row of src, whose schema must equal t's,
// column by column under one write lock and one version bump — the
// columnar twin of Append, O(src rows) without boxing. It returns t's
// new row count.
func (t *Table) AppendTable(src *Table) (int, error) {
	if t == src {
		return 0, fmt.Errorf("engine: table %q cannot append itself", t.name)
	}
	src.mu.RLock()
	defer src.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(src.cols) != len(t.cols) {
		return t.rows, fmt.Errorf("engine: table %q has %d columns, %q has %d", t.name, len(t.cols), src.name, len(src.cols))
	}
	for i, c := range t.cols {
		o := src.cols[i]
		_, ok := c.(columnAppender)
		_, ook := o.(columnAppender)
		if !ok || !ook || o.Name() != c.Name() || o.Type() != c.Type() {
			return t.rows, fmt.Errorf("engine: table %q column %d is %s %v, %q has %s %v",
				t.name, i, c.Name(), c.Type(), src.name, o.Name(), o.Type())
		}
	}
	if src.rows == 0 {
		return t.rows, nil
	}
	for i, c := range t.cols {
		c.(columnAppender).appendColumn(src.cols[i])
	}
	t.rows += src.rows
	t.version.Add(1)
	return t.rows, nil
}

// truncate returns a column limited to n rows. Used only by the
// AppendRow error path, so a gather-based copy is acceptable.
func truncate(c Column, n int) Column {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return c.gather(c.Name(), sel)
}

// View runs f while holding the table's read lock, so column readers
// outside the engine package (the stats collector) can take a
// consistent snapshot against concurrent appends. f must not call
// methods that re-acquire the table lock (NumRows, Append, ...);
// read row counts before entering and use the lock-free accessors
// (NumCols, ColumnAt, Column) inside.
func (t *Table) View(f func()) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	f()
}

// SealedChunks returns the number of fully-populated grid cells: rows
// [0, SealedChunks()*ChunkRows) can never change again (the table is
// append-only and the grid is absolute), so state derived from them is
// cacheable forever.
func (t *Table) SealedChunks() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows / ChunkRows
}

// digest is a content address: SHA-256 truncated to 16 bytes. The zero
// value marks a memo slot not yet computed.
type digest [16]byte

// chunkHashLocked returns the content digest of sealed grid cell c,
// memoized for the table's lifetime (see digestCellsLocked). The caller
// must hold t.mu (read or write) and guarantee that cell c is sealed.
func (t *Table) chunkHashLocked(c int) digest {
	t.digestCellsLocked(c, c+1, 1)
	t.chunkMu.Lock()
	defer t.chunkMu.Unlock()
	return t.chunkHashes[c]
}

// digestCellsLocked digests every not yet digested cell of the sealed
// grid cells [lo,hi) on up to workers goroutines and returns how many
// it digested. A cell's digest covers the schema (column names and
// types) and the cell's values, column by column off the typed backing
// slices (see cellDigester): two tables holding identical rows in a
// cell produce identical digests whatever their names, versions,
// dictionary codes or the cell's grid position — the content address
// the partial store's runs are keyed and validated by. The table is
// append-only and the grid absolute, so a sealed cell's digest never
// changes. The caller must hold t.mu (read or write).
func (t *Table) digestCellsLocked(lo, hi, workers int) int {
	t.chunkMu.Lock()
	if len(t.chunkHashes) < hi {
		t.chunkHashes = append(t.chunkHashes, make([]digest, hi-len(t.chunkHashes))...)
	}
	var todo []int
	for c := lo; c < hi; c++ {
		if t.chunkHashes[c] == (digest{}) {
			todo = append(todo, c)
		}
	}
	sig := t.sigLocked()
	t.chunkMu.Unlock()
	if len(todo) == 0 {
		return 0
	}
	out := make([]digest, len(todo))
	workers = min(max(workers, 1), len(todo))
	fanOut(workers, func(w int) {
		var d cellDigester
		for i := w * len(todo) / workers; i < (w+1)*len(todo)/workers; i++ {
			out[i] = d.digest(t, sig, todo[i], ChunkRows)
		}
	})
	t.chunkMu.Lock()
	defer t.chunkMu.Unlock()
	for i, c := range todo {
		t.chunkHashes[c] = out[i]
	}
	return len(todo)
}

// runDigestLocked returns the digest of the n sealed cells from cell a,
// a chain: d₁ = SHA-256(0¹⁶ ‖ h(a)), dₖ₊₁ = SHA-256(dₖ ‖ h(a+k)), each
// truncated. The chain is memoized per anchor cell, so a run that grew
// by the cells an append sealed costs one SHA-256 of 32 bytes per new
// cell, not a pass over every cell hash. The caller must hold t.mu and
// guarantee that the cells are sealed.
func (t *Table) runDigestLocked(a, n int) digest {
	t.digestCellsLocked(a, a+n, 1)
	t.chunkMu.Lock()
	defer t.chunkMu.Unlock()
	if t.runDigests == nil {
		t.runDigests = map[int][]digest{}
	}
	chain := t.runDigests[a]
	for k := len(chain); k < n; k++ {
		var link [32]byte
		if k > 0 {
			copy(link[:16], chain[k-1][:])
		}
		copy(link[16:], t.chunkHashes[a+k][:])
		sum := sha256.Sum256(link[:])
		chain = append(chain, digest(sum[:16]))
	}
	t.runDigests[a] = chain
	return chain[n-1]
}

// RunChains reports the run-digest memo (see runDigestLocked): for
// each anchor cell a range hash or a store-backed scan started a run
// at, how many sealed cells its chain covers.
func (t *Table) RunChains() map[int]int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.chunkMu.Lock()
	defer t.chunkMu.Unlock()
	out := make(map[int]int, len(t.runDigests))
	for a, chain := range t.runDigests {
		out[a] = len(chain)
	}
	return out
}

// sigLocked returns the schema's digest — column names and types, in
// order — computing it once. The caller must hold chunkMu.
func (t *Table) sigLocked() digest {
	if t.schemaSig == (digest{}) {
		var b []byte
		for _, col := range t.cols {
			b = binary.AppendUvarint(b, uint64(len(col.Name())))
			b = append(b, col.Name()...)
			b = append(b, byte(col.Type()))
		}
		sum := sha256.Sum256(b)
		t.schemaSig = digest(sum[:16])
	}
	return t.schemaSig
}

// cellDigester digests grid cells one column at a time, straight off
// the typed backing slices; its scratch is reused across the cells one
// goroutine digests. A tail — a cell's first n < ChunkRows rows — is
// digested like a sealed cell, with its row count after the schema
// digest. Per column it writes the cell's 16 null-bitmap words (bits
// past n masked), then:
//   - INT and TIME: each value as a little-endian int64;
//   - FLOAT: each value's IEEE bits (so −0 ≠ +0);
//   - STRING: each row's cell-local code as a uint16 — codes numbered
//     in first-seen order within the cell — then the number of distinct
//     strings and each of them, length-prefixed, in code order.
//
// NULL rows write 0 in place of a value or code; the bitmap tells them
// apart. Every field is fixed-width or length-prefixed, so the encoding
// is unambiguous, and nothing in it depends on the column's dictionary.
type cellDigester struct {
	buf   []byte
	local []uint16 // dictionary code → cell-local code + 1; 0 = not yet seen
	seen  []int32  // dictionary codes in first-seen order
}

// digest returns the digest of cell c's first n rows under schema
// signature sig.
func (d *cellDigester) digest(t *Table, sig digest, c, n int) digest {
	lo, hi := chunkStart(c), chunkStart(c)+n
	h := sha256.New()
	h.Write(sig[:])
	if n < ChunkRows {
		h.Write(binary.LittleEndian.AppendUint16(d.buf[:0], uint16(n)))
	}
	for _, col := range t.cols {
		d.buf = d.buf[:0]
		switch col := col.(type) {
		case *IntColumn:
			digestFixed(d, col.vals[lo:hi], &col.nulls, c, func(v int64) uint64 { return uint64(v) })
		case *TimeColumn:
			digestFixed(d, col.vals[lo:hi], &col.nulls, c, func(v int64) uint64 { return uint64(v) })
		case *FloatColumn:
			digestFixed(d, col.vals[lo:hi], &col.nulls, c, math.Float64bits)
		case *StringColumn:
			d.stringCell(col, lo, hi, c)
		default:
			panic(fmt.Sprintf("engine: cannot digest column %q of type %T", col.Name(), col))
		}
		h.Write(d.buf)
	}
	var out digest
	copy(out[:], h.Sum(d.buf[:0]))
	return out
}

// nulls appends the null-bitmap words of cell c (a cell is a whole
// number of words), bits past its first n rows cleared, and returns
// them.
func (d *cellDigester) nulls(nb *nullBitmap, c, n int) []byte {
	var words [ChunkRows / 64]uint64
	nb.wordsInto(chunkStart(c), n, words[:])
	at := len(d.buf)
	for _, word := range words {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, word)
	}
	return d.buf[at:]
}

// digestFixed appends a fixed-width column's cell (vals, its first
// len(vals) rows) to d.buf: null words, then bits(v) per row, 0 at NULL
// rows.
func digestFixed[T int64 | float64](d *cellDigester, vals []T, nb *nullBitmap, c int, bits func(T) uint64) {
	nulls := d.nulls(nb, c, len(vals))
	at := len(d.buf)
	d.buf = slices.Grow(d.buf, 8*len(vals))[:at+8*len(vals)]
	out := d.buf[at:]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], bits(v))
	}
	for w := 0; w < len(nulls); w += 8 {
		for word := binary.LittleEndian.Uint64(nulls[w:]); word != 0; word &= word - 1 {
			i := 8*w + mbits.TrailingZeros64(word)
			clear(out[8*i : 8*i+8])
		}
	}
}

// stringCell appends a string column's cell: null words, each row's
// cell-local code as a uint16, then the number of distinct strings and
// each of them, length-prefixed, in code order.
func (d *cellDigester) stringCell(col *StringColumn, lo, hi, c int) {
	d.nulls(&col.nulls, c, hi-lo)
	if len(d.local) < len(col.dict) {
		d.local = make([]uint16, len(col.dict))
	}
	at := len(d.buf)
	d.buf = slices.Grow(d.buf, 2*(hi-lo))[:at+2*(hi-lo)]
	out := d.buf[at:]
	local, seen := d.local, d.seen[:0]
	for i, g := range col.codes[lo:hi] {
		var code uint16
		if g >= 0 {
			if code = local[g]; code == 0 {
				seen = append(seen, g)
				code = uint16(len(seen))
				local[g] = code
			}
			code--
		}
		binary.LittleEndian.PutUint16(out[2*i:], code)
	}
	d.seen = seen
	d.buf = binary.AppendUvarint(d.buf, uint64(len(seen)))
	for _, g := range seen {
		s := col.dict[g]
		d.buf = binary.AppendUvarint(d.buf, uint64(len(s)))
		d.buf = append(d.buf, s...)
		local[g] = 0
	}
}

// Row materializes row i as boxed values in schema order.
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.cols))
	for c, col := range t.cols {
		out[c] = col.Value(i)
	}
	return out
}

// Loader provides a fast, typed bulk-append interface. It bypasses the
// per-row lock: take it once, append millions of rows, then Close.
type Loader struct {
	t      *Table
	closed bool
}

// StartLoad locks the table for bulk loading.
func (t *Table) StartLoad() *Loader {
	t.mu.Lock()
	return &Loader{t: t}
}

// Column returns the i-th column for direct typed appends. The caller
// must keep all columns the same length and report the final row count
// to Close.
func (l *Loader) Column(i int) Column { return l.t.cols[i] }

// ColumnByName returns the named column for direct typed appends.
func (l *Loader) ColumnByName(name string) (Column, error) {
	i, ok := l.t.byName[name]
	if !ok {
		return nil, fmt.Errorf("engine: table %q has no column %q", l.t.name, name)
	}
	return l.t.cols[i], nil
}

// Close finishes the bulk load. It validates that all columns have the
// same length and unlocks the table.
func (l *Loader) Close() error {
	if l.closed {
		return fmt.Errorf("engine: loader for %q already closed", l.t.name)
	}
	l.closed = true
	defer l.t.mu.Unlock()
	n := l.t.cols[0].Len()
	for _, c := range l.t.cols[1:] {
		if c.Len() != n {
			return fmt.Errorf("engine: table %q: ragged load: column %q has %d rows, %q has %d",
				l.t.name, c.Name(), c.Len(), l.t.cols[0].Name(), n)
		}
	}
	l.t.rows = n
	l.t.version.Add(1)
	return nil
}

// Gather materializes a new table containing exactly the selected rows,
// in order. Used to build in-memory samples.
func (t *Table) Gather(name string, sel []int32) *Table {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := &Table{name: name, id: tableIDs.Add(1), byName: make(map[string]int, len(t.cols)), rows: len(sel)}
	for i, c := range t.cols {
		out.byName[c.Name()] = i
		out.cols = append(out.cols, c.gather(c.Name(), sel))
	}
	return out
}

// Clone returns a deep copy of the table under a new name. The
// sealed-chunk hash memo carries over: the clone holds identical rows
// at identical grid positions (and hashes cover data, not the name),
// so recomputing them would produce the same digests.
func (t *Table) Clone(name string) *Table {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := &Table{name: name, id: tableIDs.Add(1), byName: make(map[string]int, len(t.cols)), rows: t.rows}
	for i, c := range t.cols {
		out.byName[c.Name()] = i
		out.cols = append(out.cols, c.clone(c.Name()))
	}
	t.chunkMu.Lock()
	out.chunkHashes = slices.Clone(t.chunkHashes)
	out.schemaSig = t.schemaSig
	t.chunkMu.Unlock()
	return out
}

// ExtractRange materializes rows [lo, hi) of the table as a new table
// under the given name. The cluster's placement layer uses it to cut a
// chunk-aligned fragment out of the coordinator's replica before
// shipping it to the worker that owns those rows. Rows keep their
// relative order, so a fragment extracted at a 1024-row grid boundary
// sees the same cell cut points a whole-table scan would.
func (t *Table) ExtractRange(name string, lo, hi int) (*Table, error) {
	t.mu.RLock()
	rows := t.rows
	t.mu.RUnlock()
	if lo < 0 || hi < lo || hi > rows {
		return nil, fmt.Errorf("engine: table %q: extract range [%d,%d) out of bounds (rows=%d)", t.name, lo, hi, rows)
	}
	sel := make([]int32, hi-lo)
	for i := range sel {
		sel[i] = int32(lo + i)
	}
	return t.Gather(name, sel), nil
}

// RangeContentHash is the content address of rows [lo, hi), lo on the
// ChunkRows grid: SHA-256 of the schema digest, the run digest of the
// sealed cells in [lo, ⌊hi/ChunkRows⌋·ChunkRows) and the digest of the
// tail rows up to hi, truncated to 16 bytes. It covers schema and rows,
// not the table's name, version or dictionary codes, so it equals
// ExtractRange(name, lo, hi).ContentHash(). Cold cells are digested on
// GOMAXPROCS goroutines, as a store-backed scan does. The table is
// append-only (a failed append rolls back under the write lock), so
// (cell, rows) names the same tail forever and the last one digested
// is memoized: a repeat hash is memo lookups, one after an append
// digests the cells it sealed and the tail.
func (t *Table) RangeContentHash(lo, hi int) (string, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if lo < 0 || hi < lo || hi > t.rows {
		return "", fmt.Errorf("engine: table %q: hash range [%d,%d) out of bounds (rows=%d)", t.name, lo, hi, t.rows)
	}
	if lo%ChunkRows != 0 {
		return "", fmt.Errorf("engine: table %q: hash range starts at row %d, off the %d-row grid", t.name, lo, ChunkRows)
	}
	a, c, n := lo/ChunkRows, hi/ChunkRows, hi%ChunkRows
	var run, tail digest
	if c > a {
		t.digestCellsLocked(a, c, runtime.GOMAXPROCS(0))
		run = t.runDigestLocked(a, c-a)
	}
	t.chunkMu.Lock()
	sig := t.sigLocked()
	if t.tailCell == c && t.tailRows == n {
		tail = t.tailSum
	}
	t.chunkMu.Unlock()
	if n > 0 && tail == (digest{}) {
		var d cellDigester
		tail = d.digest(t, sig, c, n)
		t.chunkMu.Lock()
		t.tailCell, t.tailRows, t.tailSum = c, n, tail
		t.chunkMu.Unlock()
	}
	sum := sha256.Sum256(slices.Concat(sig[:], run[:], tail[:]))
	return hex.EncodeToString(sum[:16]), nil
}
