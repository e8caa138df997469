package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"seedb/internal/lru"
)

// PartialStore is the engine's incremental-execution cache: a
// content-addressed, size-bounded LRU of runs — the exported partials of
// a stretch of sealed grid cells starting at an anchor row. A plan keeps
// its state in one run; a plan scanned with no WHERE and no sampling
// keeps it in one run per grouping set's predicate-free accumulators,
// shared by every plan that groups and measures the same way, plus one
// run for the rest (see splitParts). A query splits its range at the
// grid into an unaligned head, the sealed body and a tail, looks up each
// of its runs at the body's first row, scans only what the runs do not
// cover and stores the grown runs (see scan.partials). The table is
// append-only and the chunk grid is absolute, so a sealed cell's
// contents can never change: a run is validated by content alone —
// never by table name or version — and no invalidation is ever needed.
// Appending rows only adds cells after the runs, so a query after an
// append scans the new cells and the tail: O(delta), not O(table).
//
// The same property gives cross-table and cross-process sharing for
// free: two replicas that loaded identical data produce identical chunk
// hashes, so a worker's store primed before an append keeps serving the
// sealed prefix after it.
//
// A partial's size is set by the groups, not the rows, which is why the
// unit is a run and not an entry per cell: a never-seen predicate costs
// one export of a groups-sized partial, of its filtered accumulators
// only. The price is that only a range which starts at a run's anchor
// and reaches at least as far reuses it — a shorter range, or one whose
// first sealed cell moved (phased ranges after an append, a replicated
// shard cut that crossed a cell), rescans. Same bytes either way.
type PartialStore struct {
	mu   sync.Mutex
	runs *lru.Cache[*run]

	hits        atomic.Int64
	misses      atomic.Int64
	rowsReused  atomic.Int64
	rowsScanned atomic.Int64
}

// run is one part's aggregated state (see runPart) over cells sealed
// grid cells from its anchor row. Immutable once stored, and never
// handed to a caller: it is only ever a merge or zip SOURCE.
type run struct {
	cells    int
	digest   digest // over the cells' digests, see scan.runDigest
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
	// Hits and Misses count run lookups: a scan whose range holds a
	// sealed cell looks up each of its runs once — one for a plan that
	// is not split, one per distinct predicate-free part plus one for the
	// rest when it is. A hit found a valid run.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts runs dropped to stay under the byte budget.
	Evictions int64 `json:"evictions"`
	// RowsReused counts, per hit, the rows the run stood in for — a
	// split scan that hits three runs over the same cells counts them
	// three times; RowsScanned counts rows the incremental path actually
	// scanned (delta rows, unaligned heads and tails, and misses), once
	// per pass over them. Their ratio is the reuse ratio surfaced in
	// /api/stats.
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
// sealed body [a,ahi) and tail [ahi,hi); the body comes from the scan's
// runs (see body), head and tail are scanned with the scan's own plans,
// and the pieces are folded in row order into fresh state, so a stored
// partial is never handed out. Every cut lies on the absolute grid
// except the range's own ends, and partial merging at grid boundaries is
// exactly the partition-invariance the engine already guarantees for
// parallel and sharded scans: the bytes are those of a direct
// whole-range scan.
func (s *scan) partials(ctx context.Context) ([]*Partial, error) {
	if s.st == nil {
		return s.export(ctx, s.plans, s.lo, s.hi)
	}
	var pieces [][]*Partial
	if s.lo < s.a {
		head, err := s.export(ctx, s.plans, s.lo, s.a)
		if err != nil {
			return nil, err
		}
		pieces = append(pieces, head)
	}
	body, err := s.body(ctx)
	if err != nil {
		return nil, err
	}
	pieces = append(pieces, body)
	if s.ahi < s.hi {
		tail, err := s.export(ctx, s.plans, s.ahi, s.hi)
		if err != nil {
			return nil, err
		}
		pieces = append(pieces, tail)
	}
	return MergePartials(pieces)
}

// body answers the sealed body [a,ahi), one partial per grouping set.
// Each part's run at anchor a — valid iff it ends inside the body and
// its digest matches this table's cells — stands in for the rows it
// covers; the rest of the body is scanned and folded onto it, and the
// grown run is stored. Parts whose runs end at the same row share one
// pass over the rest, so a cold store costs one scan, as does a store
// whose runs an append left equally far behind. A split scan then zips
// its parts back into one partial per set.
func (s *scan) body(ctx context.Context) ([]*Partial, error) {
	cells := (s.ahi - s.a) / ChunkRows
	// Every lookup and store below needs the body's cell digests: take
	// the missing ones on the scan's workers.
	s.hashed += s.t.digestCellsLocked(chunkOf(s.a), chunkOf(s.ahi), s.q.Parallelism)
	ah := s.t.chunkHashLocked(chunkOf(s.a))
	anchor := "|" + strconv.Itoa(s.a) + "|" + hex.EncodeToString(ah[:])
	for _, p := range s.parts {
		p.slot = p.key + anchor
		p.found, p.body, p.from = s.st.lookup(p.slot), nil, s.a
		if p.found != nil && p.found.cells > cells {
			// A longer range's run: not usable here, not to be displaced. A
			// shorter range from the same anchor — another cut of the same
			// rows, as a worker's whole-table replica and its placement
			// segment get — keeps its run in a second slot beside it.
			p.slot += "<"
			if p.found = s.st.lookup(p.slot); p.found != nil && p.found.cells > cells {
				p.found = nil
			}
		}
		if p.found != nil && p.found.digest == s.runDigest(p.found.cells) {
			p.body, p.from = p.found.partials, s.a+p.found.cells*ChunkRows
			s.st.hits.Add(1)
			s.st.rowsReused.Add(int64(p.found.cells * ChunkRows))
		} else {
			s.st.misses.Add(1)
		}
	}
	scanned := map[int]bool{s.ahi: true}
	for _, p := range s.parts {
		if scanned[p.from] {
			continue
		}
		scanned[p.from] = true
		var group []*runPart
		var plans []*grouperPlan
		for _, q := range s.parts {
			if q.from == p.from {
				group = append(group, q)
				plans = append(plans, q.plans...)
			}
		}
		fresh, err := s.export(ctx, plans, p.from, s.ahi)
		if err != nil {
			return nil, err
		}
		for _, q := range group {
			mine := fresh[:len(q.plans)]
			fresh = fresh[len(q.plans):]
			if q.body != nil {
				if mine, err = MergePartials([][]*Partial{q.body, mine}); err != nil {
					return nil, err
				}
			}
			q.body = mine
			s.st.put(q.slot, &run{cells: cells, digest: s.runDigest(cells), partials: mine}, q.found)
		}
	}
	if s.zips == nil {
		return s.parts[0].body, nil
	}
	return s.zip()
}

// runDigest digests the content of the n sealed cells from the scan's
// anchor: a stored run is valid for this table iff it was built over
// cells with these digests (see Table.runDigestLocked).
func (s *scan) runDigest(n int) digest { return s.t.runDigestLocked(chunkOf(s.a), n) }

// ---------------------------------------------------------------------
// Split runs

// runPart is the share of a stored scan's state that one run holds, and
// the scan's bookkeeping for it over the body: the run it found, the
// body state, and the first body row it had to scan (ahi when its run
// covered the body).
type runPart struct {
	key   string         // run key, before the anchor
	plans []*grouperPlan // the run holds one partial per plan, in order

	slot  string // the store key found was looked up under, and the grown run goes to
	found *run
	body  []*Partial
	from  int
}

// setZip says where one grouping set's physical accumulators live in a
// split scan: in the reference part parts[ref] (-1: none), and in plan
// own of the scan's last part (-1: none). src[j] >= 0 is the index of
// the set's accumulator j in the reference part, ^src[j] its index in
// the own plan.
type setZip struct {
	ref, own int
	src      []int
}

// splitParts decides which runs hold a stored scan's state: one run for
// the whole plan, keyed by its signature sig — unless split (the scan
// has no WHERE and no sampling). Then each grouping set's predicate-free
// physical accumulators — those whose rows no FILTER restricts; dropping
// a measure's NULL rows is table content, not a predicate — go to a
// reference part keyed by the set's grouping columns, bin widths and
// those accumulators' columns alone (refKey: no predicate, no aggregate
// list, no alias), and the rest stays in the plan's run. SeeDB's
// comparison view reads the whole table, so every predicate on a table
// meets the same reference parts: a never-seen predicate finds them
// stored and groups only its own rows. The filtered half of a split set
// takes its groups from the rows of its filter, not from every row (see
// filterGroupRows); zip restores the others from the reference half. A set
// with no predicate-free accumulator — the zero-key target count —
// stays whole, its groups from every row. zips is nil when nothing is
// split.
func splitParts(gsets []GroupingSet, plans []*grouperPlan, fs *filterSet, sig string, split bool) ([]*runPart, []setZip) {
	whole := []*runPart{{key: sig, plans: plans}}
	if !split {
		return whole, nil
	}
	var parts []*runPart
	refAt := map[string]int{}
	own := &runPart{key: sig}
	zips := make([]setZip, len(plans))
	for i, p := range plans {
		var free, rest []int
		for j := range p.phys {
			if fs.rowSets[p.physRows(j)].filter < 0 {
				free = append(free, j)
			} else {
				rest = append(rest, j)
			}
		}
		zips[i] = setZip{ref: -1, own: -1}
		if len(free) == 0 {
			zips[i].own = len(own.plans)
			own.plans = append(own.plans, p)
			continue
		}
		// One order per set of measures, so plans listing them in
		// another order share the run.
		sort.Slice(free, func(a, b int) bool { return p.phys[free[a]].col < p.phys[free[b]].col })
		key := refKey(gsets[i], p, free)
		ri, ok := refAt[key]
		if !ok {
			ri = len(parts)
			refAt[key] = ri
			parts = append(parts, &runPart{key: key, plans: []*grouperPlan{p.derive(free, 0)}})
		}
		zips[i] = setZip{ref: ri, own: -1, src: make([]int, len(p.phys))}
		for k, j := range free {
			zips[i].src[j] = k
		}
		for k, j := range rest {
			zips[i].src[j] = ^k
		}
		if len(rest) > 0 {
			zips[i].own = len(own.plans)
			own.plans = append(own.plans, p.derive(rest, filterGroupRows(p, rest, fs)))
		}
	}
	if len(parts) == 0 {
		return whole, nil
	}
	if len(own.plans) > 0 {
		parts = append(parts, own)
	}
	return parts, zips
}

// physRows returns the scan row set (filterSet.rowSets index) physical
// accumulator j consumes.
func (p *grouperPlan) physRows(j int) int { return p.rowSets[p.phys[j].rows] }

// filterGroupRows returns the row set a plan over p's filtered
// accumulators rest takes its groups from: the rows of their filter
// when they all share one — every row set of theirs lies inside it —
// else every selected row.
func filterGroupRows(p *grouperPlan, rest []int, fs *filterSet) int {
	f := fs.rowSets[p.physRows(rest[0])].filter
	for _, j := range rest[1:] {
		if fs.rowSets[p.physRows(j)].filter != f {
			return 0
		}
	}
	return fs.rowSetIndex(rowSet{filter: f})
}

// derive binds a plan over some of p's physical accumulators (phys, in
// that order) whose groups come from the rows of scan row set groupRows,
// sharing p's keys and group layout. Its aggregate list is one COUNT
// per accumulator named after the measure: what it exports is only ever
// stored, merged and zipped.
func (p *grouperPlan) derive(phys []int, groupRows int) *grouperPlan {
	d := &grouperPlan{set: p.set, keyCols: p.keyCols, groupRows: groupRows, fast: p.fast, fastSlots: p.fastSlots, encs: p.encs}
	for _, j := range phys {
		pa := p.phys[j]
		global := p.physRows(j)
		if pa.rows = slices.Index(d.rowSets, global); pa.rows < 0 {
			pa.rows = len(d.rowSets)
			d.rowSets = append(d.rowSets, global)
		}
		d.aggs = append(d.aggs, boundAgg{spec: AggSpec{Func: AggCount, Column: pa.col}, filterIdx: -1, phys: len(d.phys)})
		d.phys = append(d.phys, pa)
	}
	d.nAggs = len(d.aggs)
	d.countGroupRows()
	return d
}

// refKey digests what determines a reference part's state besides the
// rows: the set's grouping columns and their bin widths, and the
// measures of its predicate-free accumulators (free, in order).
func refKey(gs GroupingSet, p *grouperPlan, free []int) string {
	var b strings.Builder
	b.WriteString("ref")
	for _, by := range gs.By {
		b.WriteByte(0)
		b.WriteString(by)
		if w := gs.BinWidths[by]; w != 0 {
			b.WriteString("\x00bin\x00")
			b.WriteString(strconv.FormatFloat(w, 'g', -1, 64))
		}
	}
	b.WriteByte('\n')
	for _, j := range free {
		b.WriteString(p.phys[j].col)
		b.WriteByte(0)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// zip rebuilds each grouping set's partial over the body from its parts,
// with the set's own aggregate list and logical→physical map. The
// reference half's groups are the keys of every row of the body —
// exactly the combined scan's — and the filtered half's a subset of
// them; a group with no rows on the filtered half gets the state an
// accumulator that saw no rows exports. So the result is the partial a
// combined scan of the body exports. States are copied, not merged: the
// caller folds them into fresh state.
func (s *scan) zip() ([]*Partial, error) {
	out := make([]*Partial, len(s.zips))
	own := s.parts[len(s.parts)-1]
	zero := accState(&accumulator{})
	var kbuf []byte
	for i, z := range s.zips {
		if z.ref < 0 {
			out[i] = own.body[z.own]
			continue
		}
		ref := s.parts[z.ref].body[0]
		var rest *Partial
		var restAt map[string]int
		if z.own >= 0 {
			rest = own.body[z.own]
			restAt = make(map[string]int, len(rest.Groups))
			for gi := range rest.Groups {
				kbuf = appendValueKey(kbuf[:0], rest.Groups[gi].Key)
				restAt[string(kbuf)] = gi
			}
		}
		p := s.plans[i].emptyPartial()
		nPhys := len(z.src)
		states := make([]AccState, len(ref.Groups)*nPhys)
		p.Groups = make([]PartialGroup, len(ref.Groups))
		matched := 0
		for gi := range ref.Groups {
			g := &ref.Groups[gi]
			var r *PartialGroup
			if rest != nil {
				kbuf = appendValueKey(kbuf[:0], g.Key)
				if ri, ok := restAt[string(kbuf)]; ok {
					r, matched = &rest.Groups[ri], matched+1
				}
			}
			accs := states[gi*nPhys : (gi+1)*nPhys : (gi+1)*nPhys]
			for j, src := range z.src {
				switch {
				case src >= 0:
					accs[j] = g.Accs[src]
				case r != nil:
					accs[j] = r.Accs[^src]
				default:
					accs[j] = zero
				}
			}
			p.Groups[gi] = PartialGroup{Key: g.Key, Accs: accs}
		}
		if rest != nil && matched != len(rest.Groups) {
			return nil, fmt.Errorf("engine: internal: grouping set %d has %d filtered groups outside its %d groups",
				i, len(rest.Groups)-matched, len(ref.Groups))
		}
		out[i] = p
	}
	return out, nil
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
	// A plan repeats one FILTER across many aggregates: render each
	// distinct predicate once.
	filters := map[Predicate]string{}
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
				f, ok := filters[a.Filter]
				if !ok {
					f = a.Filter.String()
					filters[a.Filter] = f
				}
				b.WriteString("\x00FILTER\x00")
				b.WriteString(f)
			}
			b.WriteByte('\n')
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}
