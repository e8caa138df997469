package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"seedb/internal/lru"
)

// PartialStore is the engine's incremental-execution cache: a
// content-addressed, size-bounded LRU holding, per plan, ONE run — the
// exported partials of a stretch of sealed grid cells starting at an
// anchor row. A query splits its range at the grid into an unaligned
// head, the sealed body and a tail, looks up its plan's run at the
// body's first row, scans only what the run does not cover and stores
// the grown run (see scan.partials). The table is append-only and the
// chunk grid is absolute, so a sealed cell's contents can never change:
// a run is validated by content alone — never by table name or version
// — and no invalidation is ever needed. Appending rows only adds cells
// after the run, so a query after an append scans the new cells and the
// tail: O(delta), not O(table).
//
// The same property gives cross-table and cross-process sharing for
// free: two replicas that loaded identical data produce identical chunk
// hashes, so a worker's store primed before an append keeps serving the
// sealed prefix after it.
//
// A partial's size is set by the groups, not the rows, which is why the
// unit is one run per plan and not an entry per cell: a never-seen
// predicate costs one export of a groups-sized partial. The price is
// that only a range which starts at the run's anchor and reaches at
// least as far reuses it — a shorter range, or one whose first sealed
// cell moved (phased ranges after an append, a replicated shard cut
// that crossed a cell), rescans. Same bytes either way.
type PartialStore struct {
	mu   sync.Mutex
	runs *lru.Cache[*run]

	hits        atomic.Int64
	misses      atomic.Int64
	rowsReused  atomic.Int64
	rowsScanned atomic.Int64
}

// run is one plan's aggregated state over cells sealed grid cells from
// its anchor row. Immutable once stored, and never handed to a caller:
// it is only ever a merge SOURCE.
type run struct {
	cells    int
	digest   string // over the cells' chunk hashes, see scan.runDigest
	partials []*Partial
}

// NewPartialStore builds a store bounded to maxBytes of estimated
// partial state (<= 0 selects the 256 MiB default).
func NewPartialStore(maxBytes int64) *PartialStore {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &PartialStore{runs: lru.New[*run](maxBytes)}
}

// lookup returns the run stored under key, if any.
func (s *PartialStore) lookup(key string) *run {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, _ := s.runs.Get(key)
	return r
}

// put stores r under key: one entry per key, and a longer run is never
// displaced by a shorter one (a short range rescans; it must not shrink
// what longer ranges reuse). replaced is the run the caller looked up
// and either extended or found stale — that one always gives way.
func (s *PartialStore) put(key string, r, replaced *run) {
	size := int64(len(key)) + runOverhead + partialsSize(r.partials)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.runs.Get(key); ok && old != replaced && old.cells >= r.cells {
		return
	}
	s.runs.Put(key, r, size)
}

// Purge drops every run.
func (s *PartialStore) Purge() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs.Purge()
}

// PartialStoreStats is a point-in-time snapshot of store effectiveness.
type PartialStoreStats struct {
	// Hits and Misses count run lookups: one per scan whose range holds
	// a sealed cell. A hit found a valid run for the plan.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts runs dropped to stay under the byte budget.
	Evictions int64 `json:"evictions"`
	// RowsReused counts rows whose aggregation was served from a stored
	// run; RowsScanned counts rows the incremental path actually scanned
	// (delta rows, unaligned heads and tails, and cold misses). Their
	// ratio is the delta-reuse ratio surfaced in /api/stats.
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
	defer s.mu.Unlock()
	return PartialStoreStats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Evictions:   s.runs.Evictions(),
		RowsReused:  s.rowsReused.Load(),
		RowsScanned: s.rowsScanned.Load(),
		Entries:     s.runs.Len(),
		Bytes:       s.runs.Bytes(),
	}
}

// Heap sizes the budget charges (pinned to unsafe.Sizeof and to measured
// heap growth by TestPartialStoreAccounting).
const (
	runOverhead = 256 // run, digest, LRU entry, list element, map bucket share
	partialSize = 120 // Partial: five slice headers
	groupSize   = 48  // PartialGroup: two slice headers
	valueSize   = 48  // Value
	accSize     = 112 // AccState
)

// partialsSize estimates the heap footprint of a run's partials: one
// AccState per physical accumulator per group, and digit slices at their
// capacity (State allocates them to their length; cap is what the
// allocator's size class made of that).
func partialsSize(partials []*Partial) int64 {
	var n int64
	for _, p := range partials {
		n += partialSize + int64(8*len(p.Funcs)) + int64(8*len(p.Phys))
		for _, c := range p.By {
			n += 16 + int64(len(c))
		}
		for _, c := range p.Cols {
			n += 16 + int64(len(c))
		}
		n += groupSize * int64(len(p.Groups))
		for _, g := range p.Groups {
			n += valueSize * int64(len(g.Key))
			for _, k := range g.Key {
				n += int64(len(k.S))
			}
			n += accSize * int64(len(g.Accs))
			for _, a := range g.Accs {
				n += int64(4*cap(a.Sum.Digits)+7)&^7 + int64(4*cap(a.SumSq.Digits)+7)&^7
			}
		}
	}
	return n
}

// ---------------------------------------------------------------------
// Incremental execution

// partials answers the bound scan as one partial per grouping set that
// the caller owns. Without a store that applies, that is one export of
// one scan. With one, the range is cut at the grid into head [lo,a),
// sealed body [a,ahi) and tail [ahi,hi); the plan's run at anchor a —
// valid iff it ends inside the body and its digest matches this table's
// cells — stands in for the rows it covers, the rest of the body is
// scanned and folded onto it, and the grown run is stored. The pieces
// are then folded in row order into fresh state, so a stored partial is
// never handed out. Every cut lies on the absolute grid except the
// range's own ends, and partial merging at grid boundaries is exactly
// the partition-invariance the engine already guarantees for parallel
// and sharded scans: the bytes are those of a direct whole-range scan.
func (s *scan) partials(ctx context.Context) ([]*Partial, error) {
	if s.st == nil {
		return s.export(ctx, s.lo, s.hi)
	}
	var pieces [][]*Partial
	if s.lo < s.a {
		head, err := s.export(ctx, s.lo, s.a)
		if err != nil {
			return nil, err
		}
		pieces = append(pieces, head)
	}

	key := s.sig + "|" + strconv.Itoa(s.a) + "|" + s.t.chunkHashLocked(chunkOf(s.a))
	cells := (s.ahi - s.a) / ChunkRows
	covered, body := s.a, []*Partial(nil)
	old := s.st.lookup(key)
	if old != nil && old.cells > cells {
		old = nil // a longer range's run: not usable here, not to be displaced
	}
	if old != nil && old.digest == s.runDigest(old.cells) {
		covered, body = s.a+old.cells*ChunkRows, old.partials
		s.st.hits.Add(1)
		s.st.rowsReused.Add(int64(old.cells * ChunkRows))
	} else {
		s.st.misses.Add(1)
	}
	if covered < s.ahi {
		fresh, err := s.export(ctx, covered, s.ahi)
		if err != nil {
			return nil, err
		}
		if body == nil {
			body = fresh
		} else if body, err = MergePartials([][]*Partial{body, fresh}); err != nil {
			return nil, err
		}
		s.st.put(key, &run{cells: cells, digest: s.runDigest(cells), partials: body}, old)
	}
	pieces = append(pieces, body)

	if s.ahi < s.hi {
		tail, err := s.export(ctx, s.ahi, s.hi)
		if err != nil {
			return nil, err
		}
		pieces = append(pieces, tail)
	}
	return MergePartials(pieces)
}

// runDigest digests the content of the n sealed cells from the scan's
// anchor: a stored run is valid for this table iff it was built over
// cells with these hashes.
func (s *scan) runDigest(n int) string {
	h := sha256.New()
	for c := chunkOf(s.a); c < chunkOf(s.a)+n; c++ {
		h.Write([]byte(s.t.chunkHashLocked(c)))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// ---------------------------------------------------------------------
// Plan signature

// PlanSignature digests everything about a query that determines a
// row range's partial state besides the rows themselves: predicate,
// sampling parameters, grouping structure, bin widths, and aggregate
// list. Row range, table identity, and parallelism are deliberately
// absent — the anchor row travels in the run key, the chunk hashes
// cover the data, and partials are partition-invariant. The service
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
