package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"seedb/internal/engine"
	"seedb/internal/obs"
	"seedb/internal/stats"
)

// PlacementStore is the one place that changes what a node holds,
// behind MemberShard and the frontend's /api/shard/* and /api/ingest
// handlers alike: it ships, drops, grows, lists and scans the node's
// whole tables and the placements it owns. Each method decides once,
// under its own locking, which of the two a name is.
//
// A whole table lives in the catalog under its own name, whether a
// coordinator shipped it (the replicated layout) or the node
// registered it itself (demo data, RegisterTable, WAL recovery). Sync
// swaps it in, Ingest grows it through Catalog.Append (the WAL seam),
// Drop removes it; a replaced or removed table's metadata-collector
// state is invalidated.
//
// A worker keeps the placements it holds of a source table as
// segments: one engine table per maximal run of placements that are
// adjacent in the source's absolute rows, registered in the executor's
// catalog under its first placement's name, whose row 0 is that
// placement's first absolute row. Placement boundaries are multiples of
// the 1024-row grid, so a segment's grid cells are the source's cells
// and their hashes are unchanged; at rf = N a segment is the whole
// table. An exchange verifies every requested placement's content hash
// on its own, then runs one scan per maximal row-adjacent run of
// served placements inside a segment.
//
// Sync, Ingest and Exec return the status an HTTP server should answer
// on error, by one rule: the request's fault is 400 (413 for a body
// over its bound, 404 for a name the node does not hold, 409 for a
// placement that cannot take it), the node's — a durability
// checkpoint, a hash — 500. Drop only ever fails on the node's side.
type PlacementStore struct {
	ex    *engine.Executor
	stats *stats.Collector

	// mu is held shared by Exec and Inventory and exclusively by every
	// placement mutation and Drop: a ship or drop may re-bind a
	// segment's catalog name, which an exchange in flight must not see.
	// A whole table's sync and ingest hold it only to read dur or
	// decide that a name is not a placement.
	mu     sync.RWMutex
	dur    Durable
	byName map[string]*placement // placement name -> placement
	segs   map[string]*segment   // segment table name -> segment
}

// Durable is where a durable node keeps what it holds across a
// restart: a whole table under its name, a placement as one snapshot
// of its own, never per segment, so shipping onto a segment's end
// writes that placement's rows and nothing else. *wal.Store implements
// it.
type Durable interface {
	CheckpointTable(t *engine.Table) error
	DropTable(name string) error
}

// placement is one held placement: rows [lo, lo+rows) of source.
type placement struct {
	name     string // FragmentName(source, idx), its name on the wire
	source   string
	lo, rows int
	hash     string // content hash, as ExtractRange(name, ...) would hash
	seg      *segment
}

// segment is one engine table holding ps, contiguous and in row order.
type segment struct {
	t  *engine.Table
	ps []*placement
}

func (g *segment) lo() int { return g.ps[0].lo }
func (g *segment) hi() int { p := g.ps[len(g.ps)-1]; return p.lo + p.rows }

// off is p's first row within its segment's table.
func (p *placement) off() int { return p.lo - p.seg.lo() }

// durableName is p's snapshot name: the placement name plus its first
// absolute row, which a restarted worker needs to rebuild segments.
func durableName(name string, lo int) string { return name + "@" + strconv.Itoa(lo) }

// NewPlacementStore creates a store over ex's catalog, holding its
// tables as whole tables and no placement; coll is the metadata
// collector whose state of a replaced or dropped table it invalidates.
func NewPlacementStore(ex *engine.Executor, coll *stats.Collector) *PlacementStore {
	return &PlacementStore{ex: ex, stats: coll, byName: map[string]*placement{}, segs: map[string]*segment{}}
}

// SetDurable makes every later ship, drop and ingest durable through d
// (nil: memory only), and adopts the placement snapshots d's recovery
// registered in the catalog.
func (s *PlacementStore) SetDurable(d Durable) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dur = d
	cat := s.ex.Catalog()
	type found struct {
		p *placement
		t *engine.Table
	}
	var rec []found
	for _, name := range cat.TableNames() {
		at := strings.LastIndexByte(name, '@')
		if at < 0 {
			continue
		}
		lo, err := strconv.Atoi(name[at+1:])
		source, ok := fragmentSource(name[:at])
		t, terr := cat.Table(name)
		if err != nil || !ok || lo < 0 || terr != nil || t.NumRows() == 0 {
			continue
		}
		cat.Drop(name)
		rec = append(rec, found{&placement{name: name[:at], source: source, lo: lo, rows: t.NumRows()}, t.Clone(name[:at])})
	}
	slices.SortFunc(rec, func(a, b found) int {
		if c := strings.Compare(a.p.source, b.p.source); c != 0 {
			return c
		}
		return a.p.lo - b.p.lo
	})
	for _, r := range rec {
		h, err := r.t.ContentHash()
		if err != nil {
			return err
		}
		r.p.hash = h
		if err := s.putLocked(r.p, r.t); err != nil {
			return err
		}
	}
	return nil
}

// Sync installs the snapshot read from r as name and reports the
// post-replacement state. With lo < 0 it is a whole table, swapped into
// the catalog under its name and checkpointed when durable. Otherwise
// it is the placement whose first absolute row is lo, replacing any
// copy already held and any held placement of the same source it
// overlaps. It is appended to the segment ending at lo, and the
// segment starting where it ends is appended to it, so the cost is the
// placement plus that following segment — never the one it joins.
func (s *PlacementStore) Sync(name string, lo int, r io.Reader) (*SyncResponse, int, error) {
	t, err := engine.ReadTable(r)
	if err != nil {
		return nil, BodyStatus(err), fmt.Errorf("cluster: parsing sync snapshot: %w", err)
	}
	source, ok := fragmentSource(name)
	switch {
	case t.Name() != name:
		return nil, http.StatusBadRequest, fmt.Errorf("cluster: sync snapshot is of table %q, not %q", t.Name(), name)
	case lo < 0:
	case !ok:
		return nil, http.StatusBadRequest, fmt.Errorf("cluster: %q is not a placement name", name)
	case lo%engine.ChunkRows != 0:
		return nil, http.StatusBadRequest, fmt.Errorf("cluster: placement %s starts at row %d, not on the %d-row grid", name, lo, engine.ChunkRows)
	case t.NumRows() == 0:
		return nil, http.StatusBadRequest, fmt.Errorf("cluster: placement %s is empty", name)
	}
	hash, err := t.ContentHash()
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	if lo >= 0 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.dur != nil {
			// The snapshot is written first: a crash after it leaves the
			// new copy durable, one before it the old.
			err = s.dur.CheckpointTable(t.Clone(durableName(name, lo)))
		}
		if err == nil {
			err = s.putLocked(&placement{name: name, source: source, lo: lo, rows: t.NumRows(), hash: hash}, t)
		}
	} else {
		// A whole table holds the lock only to read dur: the lock guards
		// segment bindings, and the checkpoint is O(table).
		s.mu.RLock()
		dur := s.dur
		s.mu.RUnlock()
		cat := s.ex.Catalog()
		cat.Drop(name)
		s.stats.Invalidate(name)
		if err = cat.Register(t); err == nil && dur != nil {
			err = dur.CheckpointTable(t)
		}
	}
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	return &SyncResponse{Table: name, Rows: t.NumRows(), ContentHash: hash}, http.StatusOK, nil
}

// putLocked replaces any held copy of p and any held placement of its
// source that p overlaps (dropping their snapshots, unless p's own
// snapshot has just overwritten it), then places p.
func (s *PlacementStore) putLocked(p *placement, t *engine.Table) error {
	for _, q := range s.byName {
		if q.name == p.name || q.source == p.source && q.lo < p.lo+p.rows && p.lo < q.lo+q.rows {
			if err := s.removeLocked(q, q.name != p.name || q.lo != p.lo); err != nil {
				return err
			}
		}
	}
	return s.placeLocked(p, t)
}

// Drop removes name — a placement, whose segment is re-cut around it,
// or a whole table — and, when durable, its snapshot. An unknown name
// succeeds: a coordinator re-issues drops until its map converges.
func (s *PlacementStore) Drop(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.byName[name]; p != nil {
		return s.removeLocked(p, true)
	}
	s.ex.Catalog().Drop(name)
	s.stats.Invalidate(name)
	if s.dur != nil {
		return s.dur.DropTable(name)
	}
	return nil
}

// Ingest appends a batch to a whole table or to a held placement,
// which must end its segment (the coordinator only grows a table's
// last placement). A whole table grows through Catalog.Append, so a
// durable node has logged the batch when Ingest returns; its append
// and its O(table) verify hash run outside the store's lock, so
// exchanges keep running beside them.
func (s *PlacementStore) Ingest(req *IngestRequest) (*IngestResponse, int, error) {
	cat := s.ex.Catalog()
	s.mu.RLock()
	held := s.byName[req.Table] != nil
	t, err := cat.Table(req.Table)
	s.mu.RUnlock()
	if held {
		return s.ingestPlacement(req)
	}
	if err != nil {
		return nil, http.StatusNotFound, err
	}
	typed, err := t.ParseRows(req.Rows)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	total, err := cat.Append(t, typed)
	if errors.Is(err, engine.ErrNotDurable) {
		// The rows were valid; the log write failed.
		return nil, http.StatusInternalServerError, err
	} else if err != nil {
		return nil, http.StatusBadRequest, err
	}
	resp := &IngestResponse{Table: req.Table, Appended: len(typed), Rows: total}
	if req.Verify {
		if resp.ContentHash, err = t.ContentHash(); err != nil {
			return nil, http.StatusInternalServerError, err
		}
	}
	return resp, http.StatusOK, nil
}

// ingestPlacement grows the held placement req.Table.
func (s *PlacementStore) ingestPlacement(req *IngestRequest) (*IngestResponse, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.byName[req.Table]
	if p == nil {
		return nil, http.StatusNotFound, fmt.Errorf("cluster: no placement named %q", req.Table)
	}
	g := p.seg
	if g.ps[len(g.ps)-1] != p {
		return nil, http.StatusConflict, fmt.Errorf("cluster: placement %s is followed by %s on this worker and cannot grow", p.name, g.ps[len(g.ps)-1].name)
	}
	typed, err := g.t.ParseRows(req.Rows)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if _, err := g.t.Append(typed); err != nil {
		return nil, http.StatusBadRequest, err
	}
	p.rows += len(typed)
	p.hash, err = g.t.RangeContentHash(p.name, p.off(), p.off()+p.rows)
	if err == nil && s.dur != nil {
		var snap *engine.Table
		if snap, err = g.t.ExtractRange(durableName(p.name, p.lo), p.off(), p.off()+p.rows); err == nil {
			err = s.dur.CheckpointTable(snap)
		}
	}
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	if err := s.linkLocked(g); err != nil {
		return nil, http.StatusInternalServerError, err
	}
	resp := &IngestResponse{Table: p.name, Appended: len(typed), Rows: p.rows}
	if req.Verify {
		resp.ContentHash = p.hash
	}
	return resp, http.StatusOK, nil
}

// TableState is one entry of a worker's inventory.
type TableState struct {
	Rows        int    `json:"rows"`
	ContentHash string `json:"contentHash"`
}

// Inventory lists what the node holds: every placement, by placement
// name, and every whole table of the catalog; segment tables are
// internal and not listed.
func (s *PlacementStore) Inventory() (map[string]TableState, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]TableState, len(s.byName))
	cat := s.ex.Catalog()
	for _, name := range cat.TableNames() {
		t, err := cat.Table(name)
		if err != nil || s.segs[name] != nil {
			continue
		}
		h, err := t.ContentHash()
		if err != nil {
			return nil, err
		}
		out[name] = TableState{Rows: t.NumRows(), ContentHash: h}
	}
	for name, p := range s.byName {
		out[name] = TableState{Rows: p.rows, ContentHash: p.hash}
	}
	return out, nil
}

// placeLocked puts p, held in t (named p.name, or cloned to that name
// when it starts a segment), after the segment ending at p.lo or into
// a segment of its own, then links the next segment on.
func (s *PlacementStore) placeLocked(p *placement, t *engine.Table) error {
	var g *segment
	for _, h := range s.segs {
		if h.ps[0].source == p.source && h.hi() == p.lo {
			g = h
			break
		}
	}
	if g != nil {
		if _, err := g.t.AppendTable(t); err != nil {
			return err
		}
	} else {
		if t.Name() != p.name {
			t = t.Clone(p.name)
		}
		g = &segment{t: t}
		if err := s.bindLocked(g); err != nil {
			return err
		}
	}
	p.seg = g
	g.ps = append(g.ps, p)
	s.byName[p.name] = p
	return s.linkLocked(g)
}

// linkLocked appends the segment that starts where g ends onto g.
func (s *PlacementStore) linkLocked(g *segment) error {
	for _, h := range s.segs {
		if h != g && h.ps[0].source == g.ps[0].source && h.lo() == g.hi() {
			if _, err := g.t.AppendTable(h.t); err != nil {
				return err
			}
			s.unbindLocked(h)
			for _, q := range h.ps {
				q.seg = g
			}
			g.ps = append(g.ps, h.ps...)
			return nil
		}
	}
	return nil
}

// removeLocked takes p out of its segment, re-cutting what remains on
// either side into segments of their own; forget also drops p's
// snapshot.
func (s *PlacementStore) removeLocked(p *placement, forget bool) error {
	g := p.seg
	i := slices.Index(g.ps, p)
	s.unbindLocked(g)
	delete(s.byName, p.name)
	for _, part := range [][]*placement{g.ps[:i], g.ps[i+1:]} {
		if len(part) == 0 {
			continue
		}
		first, last := part[0], part[len(part)-1]
		t, err := g.t.ExtractRange(first.name, first.off(), last.off()+last.rows)
		if err != nil {
			return err
		}
		h := &segment{t: t, ps: slices.Clone(part)}
		for _, q := range part {
			q.seg = h
		}
		if err := s.bindLocked(h); err != nil {
			return err
		}
	}
	if forget && s.dur != nil {
		return s.dur.DropTable(durableName(p.name, p.lo))
	}
	return nil
}

// bindLocked registers g's table in the catalog under its name,
// replacing a stale whole table of that name.
func (s *PlacementStore) bindLocked(g *segment) error {
	cat := s.ex.Catalog()
	cat.Drop(g.t.Name())
	if err := cat.Register(g.t); err != nil {
		return err
	}
	s.segs[g.t.Name()] = g
	return nil
}

func (s *PlacementStore) unbindLocked(g *segment) {
	s.ex.Catalog().Drop(g.t.Name())
	delete(s.segs, g.t.Name())
}

// ExecShardRequest runs an exchange on a node that holds whole tables
// only (see PlacementStore.Exec).
func ExecShardRequest(ctx context.Context, ex *engine.Executor, req *ShardRequest) (*ShardResponse, int, error) {
	return (&PlacementStore{ex: ex}).Exec(ctx, req)
}

// scanRun is a maximal run of served fragments, frags[j:k], that are
// row-adjacent inside one table: one scan.
type scanRun struct {
	t        *engine.Table
	j, k     int
	off0     int // table row of frags[j]'s row 0
	lo, hi   int // table rows
	partials []*engine.Partial
}

// Exec is the single worker-side implementation of an exchange. It
// checks the fragment list's shape, verifies each fragment's content
// hash — a placement or whole table it does not hold (404) or holds
// differently (409, carrying this copy's hash) is reported in Failed
// and costs the others nothing — decodes the query once, and runs one
// scan per maximal run of served fragments that are row-adjacent in
// one table, the request's parallelism spread across the runs. The
// status is what an HTTP server should answer on error. Once a
// fragment's handshake has passed both sides provably hold the same
// rows, so a decode or scan error is a property of the query — 400 —
// unless the request's own context ended.
func (s *PlacementStore) Exec(ctx context.Context, req *ShardRequest) (*ShardResponse, int, error) {
	n := len(req.Fragments)
	if n == 0 || n > MaxExchangeFragments {
		return nil, http.StatusBadRequest, fmt.Errorf("cluster: shard request carries %d fragments, want 1..%d", n, MaxExchangeFragments)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	cat := s.ex.Catalog()
	resp := &ShardResponse{}
	var runs []*scanRun
	prevHi := math.MinInt
	for i, f := range req.Fragments {
		lo, hi := f.Span()
		if f.RowLo < 0 || f.RowHi <= f.RowLo {
			return nil, http.StatusBadRequest, fmt.Errorf("cluster: fragment %s has an empty or inverted row range [%d,%d)", f.Table, f.RowLo, f.RowHi)
		}
		if lo < prevHi {
			return nil, http.StatusBadRequest, fmt.Errorf("cluster: fragment %s is out of row order or overlaps its predecessor", f.Table)
		}
		adjacent := lo == prevHi
		prevHi = hi
		var t *engine.Table
		var off int
		var hash string
		if p := s.byName[f.Table]; p != nil {
			if f.RowHi > p.rows {
				return nil, http.StatusBadRequest, fmt.Errorf("cluster: fragment %s asks for rows [%d,%d) of a %d-row placement", f.Table, f.RowLo, f.RowHi, p.rows)
			}
			t, off, hash = p.seg.t, p.off(), p.hash
		} else if whole, err := cat.Table(f.Table); err == nil {
			if hash, err = whole.ContentHash(); err != nil {
				return nil, http.StatusInternalServerError, err
			}
			t = whole
		}
		if t == nil {
			resp.Failed = append(resp.Failed, ShardFragmentStatus{Fragment: i, Status: http.StatusNotFound, Error: fmt.Sprintf("cluster: no placement or table named %q", f.Table)})
			continue
		}
		if f.ContentHash != "" && hash != f.ContentHash {
			mm := &FingerprintMismatchError{Shard: "local", Table: f.Table, Want: f.ContentHash, Got: hash}
			resp.Failed = append(resp.Failed, ShardFragmentStatus{Fragment: i, Status: http.StatusConflict, ContentHash: hash, Error: mm.Error()})
			continue
		}
		if r := len(runs) - 1; r >= 0 && adjacent && runs[r].k == i && runs[r].t == t &&
			runs[r].hi == off+f.RowLo && runs[r].off0 == off-f.SampleBase+req.Fragments[runs[r].j].SampleBase {
			runs[r].k, runs[r].hi = i+1, off+f.RowHi
			continue
		}
		runs = append(runs, &scanRun{t: t, j: i, k: i + 1, off0: off, lo: off + f.RowLo, hi: off + f.RowHi})
	}
	if len(runs) == 0 {
		return resp, http.StatusOK, nil
	}

	q0, gsets, err := req.Decode(cat, runs[0].t.Name())
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	par := max(req.Parallelism, 1)
	errs := make([]error, len(runs))
	sem := make(chan struct{}, min(par, len(runs)))
	var wg sync.WaitGroup
	for i, r := range runs {
		sem <- struct{}{} // before the go statement: at most cap(sem) scans exist
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			span := obs.TraceFrom(ctx).StartSpan("worker-scan").SetAttr("table", r.t.Name()).
				SetAttr("rows", strconv.Itoa(r.lo)+":"+strconv.Itoa(r.hi)).SetAttr("placements", strconv.Itoa(r.k-r.j))
			defer span.Finish()
			q := *q0
			q.Table = r.t.Name()
			q.SampleBase = req.Fragments[r.j].SampleBase - r.off0
			q.RowLo, q.RowHi = r.lo, r.hi
			q.Parallelism = max(par/len(runs), 1)
			r.partials, errs[i] = s.ex.RunPartials(ctx, &q, gsets)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err == nil {
			continue
		}
		if ctx.Err() != nil {
			return nil, http.StatusInternalServerError, err
		}
		return nil, http.StatusBadRequest, err
	}
	for _, r := range runs {
		lo, _ := req.Fragments[r.j].Span()
		_, hi := req.Fragments[r.k-1].Span()
		resp.Runs = append(resp.Runs, ShardRun{Lo: lo, Hi: hi, Partials: r.partials})
	}
	return resp, http.StatusOK, nil
}
