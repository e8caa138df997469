package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"seedb/internal/engine"
)

// fragment is a run of a table's rows as one worker-side table: the
// unit that is owned, shipped, appended to, verified and scanned.
type fragment struct {
	table  string // source table on the coordinator
	name   string // table name on the worker
	idx    int    // placement index (0 for a whole table)
	lo, hi int    // absolute source rows [lo,hi) the fragment holds
	// hash is the fragment's expected content hash — a function, so
	// only a task that goes to a worker asks the table for it.
	hash func() (string, error)
}

// extract materializes the fragment as a table named f.name; a whole
// table under its own name is the live table itself (no copy, and a
// worker's hash of it is t.ContentHash by construction).
func (f fragment) extract(t *engine.Table) (*engine.Table, error) {
	if f.name == t.Name() {
		return t, nil
	}
	return t.ExtractRange(f.name, f.lo, f.hi)
}

// task is one unit of a scatter: rows [lo,hi) of frag, served by one of
// owners or else by the coordinator's replica.
type task struct {
	frag   fragment
	lo, hi int       // absolute rows to scan, within frag
	owners []*member // candidates not yet tried, in ring order

	// Routing state (Backend.route).
	hash  string // frag's expected content hash, once a worker is asked
	err   error  // why the last candidate (or the lack of one) did not serve it
	fault bool   // err is the query's doing: no worker can do better
}

// fleet is the backend's membership, guarded by Backend.mu. Layout
// methods that take a fleet are called with that lock held.
type fleet struct {
	order []*member     // join order
	ring  *hashRing     // over the members' IDs
	epoch atomic.Uint64 // bumped on every join and leave
}

func (fl *fleet) find(id string) *member {
	for _, m := range fl.order {
		if m.w.ID() == id {
			return m
		}
	}
	return nil
}

// layout is the policy half of the backend — the only thing that
// differs between replicate-everything and data-partitioned placement.
type layout interface {
	// fragments lists, in row order, the fragments of t (rows rows
	// long) that intersect rows [lo,hi).
	fragments(t *engine.Table, rows, lo, hi int) []fragment
	// owners returns the workers that should hold f, in try order.
	owners(f fragment, fl *fleet) []*member
	// cut splits a query's window [lo,hi) into tasks, in row order. No
	// tasks means the window runs on the coordinator unscattered.
	cut(t *engine.Table, rows, lo, hi int, fl *fleet) []task
	// signature is the backend's core.Backend signature.
	signature(fl *fleet) string
}

// replicated: every worker holds every table whole; the WORK is
// partitioned per query.
type replicated struct{}

func (replicated) fragments(t *engine.Table, rows, lo, hi int) []fragment {
	if lo >= hi || lo >= rows {
		return nil
	}
	return []fragment{{table: t.Name(), name: t.Name(), hi: rows, hash: t.ContentHash}}
}

func (replicated) owners(f fragment, fl *fleet) []*member { return fl.order }

// cut is one grid-aligned range per worker, task i owned by worker i.
func (l replicated) cut(t *engine.Table, rows, lo, hi int, fl *fleet) []task {
	frags := l.fragments(t, rows, lo, hi)
	if len(fl.order) == 0 || len(frags) == 0 {
		return nil
	}
	var tasks []task
	for i, rg := range engine.ShardRanges(rows, lo, hi, len(fl.order)) {
		tasks = append(tasks, task{frag: frags[0], lo: rg[0], hi: rg[1], owners: fl.order[i:][:1]})
	}
	return tasks
}

func (replicated) signature(fl *fleet) string {
	return fmt.Sprintf("sharded(remote,n=%d)", len(fl.order))
}

// placed: the DATA is partitioned into chunk-aligned placements on a
// consistent-hash ring.
type placed struct {
	rf   int // owners per placement (clamped to the worker count)
	span int // rows per placement, a multiple of engine.ChunkRows
}

// FragmentName is the name of table's placement idx on a worker:
// plain identifier characters only, so it stays a valid table name and
// filesystem-safe (durable workers snapshot under it).
func FragmentName(table string, idx int) string {
	return table + "__p" + strconv.Itoa(idx)
}

// fragmentSource inverts FragmentName: the table a placement name is
// of, and false for a name FragmentName cannot produce.
func fragmentSource(name string) (string, bool) {
	i := strings.LastIndex(name, "__p")
	if i <= 0 || i+3 == len(name) || strings.Trim(name[i+3:], "0123456789") != "" {
		return "", false
	}
	return name[:i], true
}

// placementKey is the ring key for (table, placement index).
func placementKey(table string, idx int) string {
	return table + "\x00" + strconv.Itoa(idx)
}

func (l *placed) fragments(t *engine.Table, rows, lo, hi int) []fragment {
	hi = min(hi, rows)
	var out []fragment
	for idx := max(lo, 0) / l.span; idx*l.span < hi; idx++ {
		f := fragment{table: t.Name(), name: FragmentName(t.Name(), idx), idx: idx,
			lo: idx * l.span, hi: min((idx+1)*l.span, rows)}
		f.hash = func() (string, error) { return t.RangeContentHash(f.lo, f.hi) }
		out = append(out, f)
	}
	return out
}

func (l *placed) owners(f fragment, fl *fleet) []*member {
	ids := fl.ring.Owners(placementKey(f.table, f.idx), l.rf)
	out := make([]*member, 0, len(ids))
	for _, id := range ids {
		if m := fl.find(id); m != nil {
			out = append(out, m)
		}
	}
	return out
}

// cut is one task per placement the window touches. Boundaries are
// absolute — placement i covers rows [i*span, (i+1)*span) — so appends
// never move them.
func (l *placed) cut(t *engine.Table, rows, lo, hi int, fl *fleet) []task {
	if len(fl.order) == 0 {
		return nil
	}
	var tasks []task
	for _, f := range l.fragments(t, rows, lo, hi) {
		tasks = append(tasks, task{frag: f, lo: max(f.lo, lo), hi: min(f.hi, hi), owners: l.owners(f, fl)})
	}
	return tasks
}

func (l *placed) signature(fl *fleet) string {
	return fmt.Sprintf("placed(rf=%d,chunks=%d,epoch=%d,workers=%d)",
		l.rf, l.span/engine.ChunkRows, fl.epoch.Load(), len(fl.order))
}
