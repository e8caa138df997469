package engine

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// PartialStore is the engine's incremental-execution cache: a
// content-addressed, size-bounded LRU of per-chunk aggregation partials.
// Entries are keyed by (chunk content hash, chunk position, plan
// signature), so a hit means "this exact grid cell, holding these exact
// rows, was already aggregated under this exact plan" — reuse is always
// byte-safe, and no invalidation is ever needed: the table is
// append-only and the chunk grid is absolute, so a sealed cell's
// contents (and therefore its key) can never change. Appending rows
// only adds new cells; a query after an append reuses every sealed
// cell's partials and scans just the tail plus the new cells, making
// query-after-append cost O(delta), not O(table).
//
// The same property gives cross-table and cross-process sharing for
// free: two replicas that loaded identical data produce identical chunk
// hashes, so a worker's store primed before an append keeps serving the
// sealed prefix after it.
type PartialStore struct {
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*psEntry
	lru     *list.List // front = most recently used
	bytes   int64

	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	rowsReused  atomic.Int64
	rowsScanned atomic.Int64
}

// psEntry is one cached chunk: the partials of every grouping set of
// one plan over one sealed grid cell.
type psEntry struct {
	key      string
	partials []*Partial
	size     int64
	elem     *list.Element
}

// DefaultPartialStoreBytes bounds the store when no budget is given.
const DefaultPartialStoreBytes = 256 << 20

// NewPartialStore builds a store bounded to maxBytes of estimated
// partial state (<= 0 selects DefaultPartialStoreBytes).
func NewPartialStore(maxBytes int64) *PartialStore {
	if maxBytes <= 0 {
		maxBytes = DefaultPartialStoreBytes
	}
	return &PartialStore{
		maxBytes: maxBytes,
		entries:  make(map[string]*psEntry),
		lru:      list.New(),
	}
}

// get returns the cached partials for key. Returned partials are shared
// and must never be mutated — callers merge FROM them into fresh
// accumulators, never INTO them.
func (s *PartialStore) get(key string) ([]*Partial, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(e.elem)
	return e.partials, true
}

// put stores the partials for key, evicting least-recently-used entries
// until the budget holds again. Oversized single entries are still
// admitted, mirroring the view cache's policy.
func (s *PartialStore) put(key string, partials []*Partial) {
	e := &psEntry{key: key, partials: partials, size: partialsSize(partials)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		return // racing scan of the same chunk already stored it
	}
	e.elem = s.lru.PushFront(e)
	s.entries[key] = e
	s.bytes += e.size
	for s.bytes > s.maxBytes && s.lru.Len() > 1 {
		tail := s.lru.Back()
		victim := tail.Value.(*psEntry)
		s.lru.Remove(tail)
		delete(s.entries, victim.key)
		s.bytes -= victim.size
		s.evictions.Add(1)
	}
}

// Purge drops every entry.
func (s *PartialStore) Purge() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = make(map[string]*psEntry)
	s.lru.Init()
	s.bytes = 0
}

// PartialStoreStats is a point-in-time snapshot of store effectiveness.
type PartialStoreStats struct {
	// Hits and Misses count sealed-chunk lookups.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped to stay under the byte budget.
	Evictions int64 `json:"evictions"`
	// RowsReused counts rows whose aggregation was served from cached
	// chunk partials; RowsScanned counts rows the incremental path
	// actually re-scanned (delta rows, unsealed tails, and cold misses).
	// Their ratio is the delta-reuse ratio surfaced in /api/stats.
	RowsReused  int64 `json:"rowsReused"`
	RowsScanned int64 `json:"rowsScanned"`
	// Entries and Bytes describe the current contents.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// ReuseRatio returns RowsReused / (RowsReused + RowsScanned), the
// fraction of aggregated rows that never had to be re-scanned.
func (st PartialStoreStats) ReuseRatio() float64 {
	total := st.RowsReused + st.RowsScanned
	if total == 0 {
		return 0
	}
	return float64(st.RowsReused) / float64(total)
}

// Stats snapshots the store counters.
func (s *PartialStore) Stats() PartialStoreStats {
	s.mu.Lock()
	entries, bytes := len(s.entries), s.bytes
	s.mu.Unlock()
	return PartialStoreStats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Evictions:   s.evictions.Load(),
		RowsReused:  s.rowsReused.Load(),
		RowsScanned: s.rowsScanned.Load(),
		Entries:     entries,
		Bytes:       bytes,
	}
}

// partialsSize estimates the heap footprint of a chunk's partials.
func partialsSize(partials []*Partial) int64 {
	const accSize = 96 // AccState struct + slice header share
	var n int64
	for _, p := range partials {
		n += 128
		for _, c := range p.Cols {
			n += int64(len(c)) + 24
		}
		for _, g := range p.Groups {
			n += 48
			for _, k := range g.Key {
				n += 48 + int64(len(k.S))
			}
			for _, a := range g.Accs {
				n += accSize + int64(4*(len(a.Sum.Digits)+len(a.SumSq.Digits)))
			}
		}
	}
	return n
}

// ---------------------------------------------------------------------
// Plan signature

// PlanSignature digests everything about a query that determines a
// chunk's partial state besides the rows themselves: predicate,
// sampling parameters, grouping structure, bin widths, and aggregate
// list. Row range, table identity, and parallelism are deliberately
// absent — the row position travels in the chunk key, the chunk hash
// covers the data, and partials are partition-invariant. The service
// layer reuses this digest (plus table fingerprint and row range) as
// its execution-cache key, so the two caches agree on what "same plan"
// means.
func PlanSignature(q *Query, gsets []GroupingSet) string {
	var b strings.Builder
	b.Grow(256)
	if q.Where != nil {
		b.WriteString(q.Where.String())
	}
	b.WriteByte('\n')
	b.WriteString(strconv.FormatFloat(q.SampleFraction, 'g', -1, 64))
	b.WriteByte(',')
	b.WriteString(strconv.FormatUint(q.SampleSeed, 10))
	b.WriteByte(',')
	b.WriteString(strconv.Itoa(q.SampleBase))
	b.WriteByte('\n')
	// NUL separators everywhere a field could itself contain the
	// neighboring punctuation (column names come from CSV headers and
	// may hold commas or spaces): two different plans must never
	// serialize to the same signature.
	for _, gs := range gsets {
		b.WriteString("set")
		for _, by := range gs.By {
			b.WriteByte(0)
			b.WriteString(by)
		}
		if len(gs.BinWidths) > 0 {
			cols := make([]string, 0, len(gs.BinWidths))
			for c := range gs.BinWidths {
				cols = append(cols, c)
			}
			sort.Strings(cols)
			for _, c := range cols {
				b.WriteString("\x00bin\x00")
				b.WriteString(c)
				b.WriteByte(0)
				b.WriteString(strconv.FormatFloat(gs.BinWidths[c], 'g', -1, 64))
			}
		}
		b.WriteByte('\n')
		for _, a := range gs.Aggs {
			b.WriteString(a.Func.String())
			b.WriteByte(0)
			b.WriteString(a.Column)
			b.WriteByte(0)
			b.WriteString(a.Alias)
			if a.Filter != nil {
				b.WriteString("\x00FILTER\x00")
				b.WriteString(a.Filter.String())
			}
			b.WriteByte('\n')
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// ---------------------------------------------------------------------
// Incremental (chunked) execution

// errChunkPathNA reports that the incremental path cannot serve a query
// (no store installed, or the scanned range contains no sealed cell);
// callers fall back to the direct scan.
var errChunkPathNA = errors.New("engine: chunk-partial path not applicable")

// chunkSeg is one contiguous piece of a chunked scan: either a sealed
// grid cell (key != "", cacheable) or an unaligned remainder (key ==
// "", always scanned, never stored).
type chunkSeg struct {
	lo, hi   int
	key      string
	partials []*Partial
}

// runPartialsChunked executes (q, gsets) as a merge of per-chunk
// partials, reusing cached sealed-cell state from the partial store and
// scanning only what is missing. The merged result is byte-identical
// to a direct whole-range scan: segment boundaries lie on the chunk
// grid, and partial merging at grid boundaries is exactly the
// partition-invariance the engine already guarantees for parallel and
// sharded scans.
func (e *Executor) runPartialsChunked(ctx context.Context, q *Query, gsets []GroupingSet) ([]*Partial, error) {
	st := e.PartialStore()
	if st == nil {
		return nil, errChunkPathNA
	}
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
	defer t.mu.RUnlock()

	lo, hi := 0, t.rows
	if q.RowHi > 0 {
		if q.RowLo < 0 || q.RowLo > q.RowHi || q.RowHi > t.rows {
			return nil, fmt.Errorf("engine: row range [%d,%d) invalid for table %q with %d rows",
				q.RowLo, q.RowHi, q.Table, t.rows)
		}
		lo, hi = q.RowLo, q.RowHi
	}
	// Sealed cells fully inside [lo,hi): cells in [alo, ahi).
	sealedHi := (t.rows / ChunkRows) * ChunkRows
	alo := alignToGrid(lo)
	ahi := min(chunkStart(chunkOf(hi)), sealedHi)
	if ahi-alo < ChunkRows {
		return nil, errChunkPathNA
	}

	// Plans — bound aggregates, key encoders, the fast group layout — are
	// built ONCE for the whole query, and one kernel set is compiled up
	// front so an invalid predicate fails the query whether or not every
	// cell it touches happens to be cached.
	fs := buildFilterSet(e.recordQueryAccess(t, q, gsets))
	smp := newSampler(q.SampleFraction, q.SampleSeed, q.SampleBase)
	plans, err := buildGrouperPlans(t, gsets, fs, false)
	if err != nil {
		return nil, err
	}
	compiled, err := compileScan(t, q.Where, fs, smp)
	if err != nil {
		return nil, err
	}
	sig := PlanSignature(q, gsets)

	e.stats.Queries.Add(1)
	e.stats.TableScans.Add(1)

	// Segment the range: head remainder, sealed cells, tail remainder.
	var segs []*chunkSeg
	if lo < alo {
		segs = append(segs, &chunkSeg{lo: lo, hi: min(alo, hi)})
	}
	for c := alo / ChunkRows; c < ahi/ChunkRows; c++ {
		segs = append(segs, &chunkSeg{
			lo:  chunkStart(c),
			hi:  chunkStart(c + 1),
			key: t.chunkHashLocked(c) + "|" + strconv.Itoa(chunkStart(c)) + "|" + sig,
		})
	}
	if ahi < hi {
		segs = append(segs, &chunkSeg{lo: ahi, hi: hi})
	}

	// Serve sealed cells from the store; collect what must be scanned.
	var missing []*chunkSeg
	for _, seg := range segs {
		if seg.key != "" {
			if ps, ok := st.get(seg.key); ok {
				seg.partials = ps
				st.hits.Add(1)
				st.rowsReused.Add(int64(seg.hi - seg.lo))
				continue
			}
			st.misses.Add(1)
		}
		missing = append(missing, seg)
	}

	// Scan the missing segments, using the query's parallelism budget
	// across segments (each segment is one grid cell or remainder, so
	// per-segment parallel scans would be pointless). Each worker owns one
	// grouper arena and one compiled kernel set, reset between segments,
	// so per-segment cost is O(segment rows + groups seen), never O(plan).
	newSegScanner := func(sk *scanKernels) func(seg *chunkSeg) error {
		groupers := newGroupers(plans)
		first := true
		return func(seg *chunkSeg) error {
			if !first {
				for _, g := range groupers {
					g.reset()
				}
			}
			first = false
			if err := sk.scanPartition(ctx, seg.lo, seg.hi, groupers); err != nil {
				return err
			}
			seg.partials = make([]*Partial, len(groupers))
			for i, g := range groupers {
				seg.partials[i] = g.partial()
			}
			n := int64(seg.hi - seg.lo)
			st.rowsScanned.Add(n)
			e.stats.RowsRead.Add(n)
			return nil
		}
	}
	workers := min(q.Parallelism, len(missing))
	if workers <= 1 {
		if len(missing) > 0 {
			scanSeg := newSegScanner(compiled)
			for _, seg := range missing {
				if err := scanSeg(seg); err != nil {
					return nil, err
				}
			}
		}
	} else {
		kernels := []*scanKernels{compiled}
		for len(kernels) < workers {
			sk, err := compileScan(t, q.Where, fs, smp)
			if err != nil {
				return nil, err
			}
			kernels = append(kernels, sk)
		}
		segCh := make(chan *chunkSeg)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w, sk := range kernels {
			wg.Add(1)
			go func(w int, sk *scanKernels) {
				defer wg.Done()
				scanSeg := newSegScanner(sk)
				for seg := range segCh {
					if errs[w] != nil {
						continue // drain after failure
					}
					errs[w] = scanSeg(seg)
				}
			}(w, sk)
		}
		for _, seg := range missing {
			segCh <- seg
		}
		close(segCh)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	for _, seg := range missing {
		if seg.key != "" {
			st.put(seg.key, seg.partials)
		}
	}

	// Merge in range order into fresh accumulators: stored partials are
	// only ever merge SOURCES (never mutated).
	parts := make([][]*Partial, len(segs))
	for i, seg := range segs {
		parts[i] = seg.partials
	}
	return MergePartials(parts)
}

// recordQueryAccess records the query's column-access pattern (the raw
// data behind SeeDB's access-frequency pruning) and returns the flat
// aggregate list. Shared by the direct and chunked execution paths.
func (e *Executor) recordQueryAccess(t *Table, q *Query, gsets []GroupingSet) []AggSpec {
	var touched []string
	seen := map[string]struct{}{}
	touch := func(cols ...string) {
		for _, c := range cols {
			if c == "" {
				continue
			}
			if _, ok := seen[c]; !ok {
				seen[c] = struct{}{}
				touched = append(touched, c)
			}
		}
	}
	var allAggs []AggSpec
	for _, gs := range gsets {
		touch(gs.By...)
		for _, a := range gs.Aggs {
			touch(a.Column)
			if a.Filter != nil {
				touch(a.Filter.Columns()...)
			}
		}
		allAggs = append(allAggs, gs.Aggs...)
	}
	if q.Where != nil {
		touch(q.Where.Columns()...)
	}
	e.cat.RecordAccess(q.Table, touched...)
	return allAggs
}
