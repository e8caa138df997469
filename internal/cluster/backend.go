package cluster

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seedb/internal/engine"
	"seedb/internal/obs"
)

// Config tunes a Backend.
type Config struct {
	// Replication selects the layout: 0 is replicated (every worker
	// holds every table whole; each query's window is cut into one
	// range per worker), >= 1 is placed (each placement lives on that
	// many distinct workers, clamped to the worker count).
	Replication int
	// PlacementChunks is the number of 1024-row grid cells per
	// placement (default 4; placed layout only). Boundaries are
	// absolute, so appends never move existing ones.
	PlacementChunks int
	// Cooldown is how long a failed worker is skipped before the next
	// query half-opens it again (default 15s).
	Cooldown time.Duration
}

// retries is how many extra attempts a failing exchange gets before its
// tasks move on (to their next owners, then the coordinator).
const retries = 1

// member is one worker plus its health, accounting, and inventory.
type member struct {
	w Worker

	mu          sync.Mutex
	healthy     bool
	failures    int64
	lastFailure time.Time
	execs       int64
	execNanos   int64
	// holds maps fragment name -> content hash last verified on this
	// worker: advisory for routing (skip workers known not to hold a
	// fragment) and the diff basis for rebalancing — the per-request
	// hash handshake remains the correctness check. nil = inventory
	// never taken (Join): every fragment is presumed held.
	holds map[string]string
}

func (m *member) markFailure() {
	m.mu.Lock()
	m.healthy = false
	m.failures++
	m.lastFailure = time.Now()
	m.mu.Unlock()
}

func (m *member) markHealthy() {
	m.mu.Lock()
	m.healthy = true
	m.mu.Unlock()
}

// usable reports whether the worker should be tried now: healthy, or
// unhealthy but past the cooldown (half-open probe).
func (m *member) usable(cooldown time.Duration) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.healthy || time.Since(m.lastFailure) >= cooldown
}

// hold returns the hash last verified for frag; held is also true,
// with an empty hash, when the inventory is unknown.
func (m *member) hold(frag string) (hash string, held bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	hash, held = m.holds[frag]
	return hash, held || m.holds == nil
}

// setHold records a verified (hash != "") or lost (hash == "")
// fragment. An unknown inventory stays unknown.
func (m *member) setHold(frag, hash string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case m.holds == nil:
	case hash == "":
		delete(m.holds, frag)
	default:
		m.holds[frag] = hash
	}
}

func (m *member) status() ShardStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := ShardStatus{ID: m.w.ID(), Healthy: m.healthy, Failures: m.failures,
		LastFailure: m.lastFailure, Execs: m.execs, Fragments: len(m.holds)}
	if m.execs > 0 {
		st.AvgMillis = float64(m.execNanos) / float64(m.execs) / 1e6
	}
	return st
}

// Backend is the cluster core.Backend: it cuts every engine query's
// row window into tasks, sends each worker its tasks in one exchange
// (what no worker served runs on the coordinator's own replica), and
// merges the partials in row order — byte-identical to a single-node
// scan for every layout and topology, because tasks are cut on the
// engine's deterministic chunk grid and all float state merges exactly.
//
// Failure semantics: an exchange that fails whole gets one retry, then
// its worker is marked unhealthy — skipped until Cooldown passes, then
// half-opened — and its tasks move to their next owners; a fragment the
// worker lacks or holds diverged moves alone, unretried (permanent
// until re-shipped). What no owner served runs on the coordinator's
// replica, so queries degrade rather than fail.
type Backend struct {
	ex     *engine.Executor
	store  *PlacementStore // the node's own, which every append goes through
	cfg    Config
	layout layout

	// mu guards membership.
	mu sync.RWMutex
	fleet

	// ingestMu serializes appends and rebalances fleet-wide: owners
	// applying identical deltas in identical order is what keeps
	// fragment hashes aligned, and a rebalance racing an append could
	// ship a fragment matching neither pre- nor post-append state.
	ingestMu sync.Mutex

	scatters    atomic.Int64
	shardCalls  atomic.Int64
	retriesN    atomic.Int64
	failovers   atomic.Int64
	mismatches  atomic.Int64
	ingests     atomic.Int64
	ingestRows  atomic.Int64
	rebalances  atomic.Int64
	fragShipped atomic.Int64
	fragDropped atomic.Int64
	moveBytes   atomic.Int64

	// rpcSeconds: per-worker attempt latency (nil = observability off).
	rpcSeconds atomic.Pointer[obs.HistogramVec]
}

// New builds a coordinator backend over the node's placement store —
// the authoritative replica: ingest entry point and degraded path.
// Workers join via AddWorker, Join, or the frontend's /api/shard/register.
func New(store *PlacementStore, cfg Config) *Backend {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 15 * time.Second
	}
	if cfg.PlacementChunks <= 0 {
		cfg.PlacementChunks = 4
	}
	b := &Backend{ex: store.ex, store: store, cfg: cfg, layout: replicated{}, fleet: fleet{ring: newHashRing()}}
	if cfg.Replication > 0 {
		b.layout = &placed{rf: cfg.Replication, span: cfg.PlacementChunks * engine.ChunkRows}
	}
	return b
}

// EnableMetrics registers the backend's counters with the metrics
// registry and turns on the per-worker attempt latency histogram. Safe
// on a live backend; observation-only.
func (b *Backend) EnableMetrics(reg *obs.Registry) {
	for _, c := range []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"scatters_total", "Queries scatter-gathered across the fleet.", &b.scatters},
		{"shard_calls_total", "Exchanges attempted with workers: one per worker per scan, plus retries and re-cuts.", &b.shardCalls},
		{"retries_total", "Extra attempts after a worker failure.", &b.retriesN},
		{"failovers_total", "Fragments degraded to the coordinator's replica (no owner served them).", &b.failovers},
		{"mismatches_total", "Fragment content-hash mismatches observed.", &b.mismatches},
		{"ingest_rows_total", "Rows ingested through the coordinator.", &b.ingestRows},
		{"rebalances_total", "Rebalance passes run.", &b.rebalances},
		{"fragments_shipped_total", "Fragments shipped to workers by rebalancing and ingest.", &b.fragShipped},
		{"fragments_dropped_total", "Fragments dropped from workers that lost ownership.", &b.fragDropped},
		{"rebalance_bytes_total", "Serialized fragment bytes moved to workers.", &b.moveBytes},
	} {
		reg.CounterFunc("seedb_cluster_"+c.name, c.help, func() float64 { return float64(c.v.Load()) })
	}
	reg.GaugeFunc("seedb_cluster_workers", "Registered workers.",
		func() float64 { return float64(b.NumWorkers()) })
	reg.GaugeFunc("seedb_cluster_ownership_skew", "Max/mean fragments held per worker (1.0 = perfectly even).",
		func() float64 {
			st := b.Counters()
			if st.MeanPerWorker == 0 {
				return 0
			}
			return float64(st.MaxPerWorker) / st.MeanPerWorker
		})
	b.rpcSeconds.Store(reg.HistogramVec("seedb_shard_rpc_seconds",
		"Latency of each exchange attempt, by worker (coordinator failover not included).",
		obs.DefBuckets, "shard"))
}

// ---------------------------------------------------------------------
// Membership

// members snapshots the fleet in join order. The slice is never
// written below its length again (joins append, leaves reallocate), so
// callers may range over it without the lock.
func (b *Backend) members() []*member {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.order
}

// NumWorkers returns the registered worker count.
func (b *Backend) NumWorkers() int { return len(b.members()) }

// Signature implements core.Backend: the layout plus its topology.
// Results are byte-identical across topologies by construction, but an
// exec-cache entry computed under a vanished membership must not
// masquerade as evidence about the current one.
func (b *Backend) Signature() string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.layout.signature(&b.fleet)
}

// Join registers a worker without taking its inventory or shipping it
// anything: it is presumed to hold whatever it is asked for and the
// per-request hash handshake decides, so a pre-loaded worker costs
// nothing to admit and a diverged one is detected (409, range served
// locally), not overwritten. False when the ID is already registered.
func (b *Backend) Join(w Worker) bool {
	_, added := b.join(w, nil)
	return added
}

func (b *Backend) join(w Worker, holds map[string]string) (*member, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if m := b.find(w.ID()); m != nil {
		return m, false
	}
	m := &member{w: w, healthy: true, holds: holds}
	b.order = append(b.order, m)
	b.ring.Add(w.ID())
	b.epoch.Add(1)
	return m, true
}

// inventory is the worker's own report of what it holds. An
// unreachable worker is assumed to hold nothing, so the ships that
// follow are attempted (and reported) rather than skipped.
func inventory(ctx context.Context, w Worker) map[string]string {
	if theirs, err := w.TableHashes(ctx); err == nil && theirs != nil {
		return theirs
	}
	return map[string]string{}
}

// AddWorker registers a worker, takes its inventory, and rebalances so
// it holds exactly what the layout now assigns it — replica bootstrap
// under the replicated layout, its ring share under the placed one. A
// durable worker that recovered its fragments from disk is not
// re-shipped bytes it already holds. added is false when the ID was
// already registered (inventory and rebalance still run: re-announcing
// after a restart re-ships anything lost). Ingest is held throughout.
func (b *Backend) AddWorker(ctx context.Context, w Worker) (rep *RebalanceReport, added bool, err error) {
	b.ingestMu.Lock()
	defer b.ingestMu.Unlock()
	holds := inventory(ctx, w)
	m, added := b.join(w, holds)
	m.mu.Lock()
	m.holds = holds
	m.mu.Unlock()
	rep, err = b.rebalanceLocked(ctx)
	return rep, added, err
}

// RemoveWorker deregisters a worker and rebalances what it owned onto
// the remaining members (shipped from the coordinator's replica).
// removed is false when the ID was not registered.
func (b *Backend) RemoveWorker(ctx context.Context, id string) (rep *RebalanceReport, removed bool, err error) {
	b.ingestMu.Lock()
	defer b.ingestMu.Unlock()

	b.mu.Lock()
	if i := slices.Index(b.order, b.find(id)); i >= 0 {
		b.order = slices.Delete(slices.Clone(b.order), i, i+1)
		b.ring.Remove(id)
		b.epoch.Add(1)
		removed = true
	}
	b.mu.Unlock()
	if !removed {
		return nil, false, nil
	}
	rep, err = b.rebalanceLocked(ctx)
	return rep, true, err
}

// ---------------------------------------------------------------------
// Query routing

// Run implements core.Backend.
func (b *Backend) Run(ctx context.Context, q *engine.Query) (*engine.Result, error) {
	results, err := b.scatter(ctx, q, nil)
	if err != nil {
		return nil, err
	}
	res := results[0]
	if len(q.OrderBy) > 0 {
		if err := res.Sort(q.OrderBy); err != nil {
			return nil, err
		}
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

// RunSharedScan implements core.Backend.
func (b *Backend) RunSharedScan(ctx context.Context, q *engine.Query, gsets []engine.GroupingSet) ([]*engine.Result, error) {
	if len(gsets) == 0 {
		return nil, fmt.Errorf("cluster: RunSharedScan needs at least one grouping set")
	}
	return b.scatter(ctx, q, gsets)
}

// scatter cuts the query's row window into the layout's tasks, routes
// them — one exchange per worker, the coordinator's replica for what no
// worker served — and folds the resulting runs in ascending row order.
// The merge is exact and associative and every fold (a worker's run,
// this gather) keeps row order, so the bytes are those of one scan.
func (b *Backend) scatter(ctx context.Context, q *engine.Query, gsets []engine.GroupingSet) ([]*engine.Result, error) {
	t, err := b.ex.Catalog().Table(q.Table)
	if err != nil {
		return nil, err
	}
	rows := t.NumRows()
	lo, hi := 0, rows
	if q.RowHi > 0 {
		lo, hi = q.RowLo, min(q.RowHi, rows)
	}
	b.mu.RLock()
	tasks := b.layout.cut(t, rows, lo, hi, &b.fleet)
	b.mu.RUnlock()
	if len(tasks) == 0 {
		// Nothing to scatter (no workers, or an empty window): run
		// whole-range locally, preserving exact semantics.
		if gsets == nil {
			res, err := b.ex.Run(ctx, q)
			if err != nil {
				return nil, err
			}
			return []*engine.Result{res}, nil
		}
		return b.ex.RunSharedScan(ctx, q, gsets)
	}

	b.scatters.Add(1)
	runs, err := b.route(ctx, t, q, gsets, tasks)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(runs, func(x, y ShardRun) int { return cmp.Compare(x.Lo, y.Lo) })
	merged := runs[0].Partials
	if len(runs) > 1 {
		parts := make([][]*engine.Partial, len(runs))
		for i, r := range runs {
			parts[i] = r.Partials
		}
		if merged, err = engine.MergePartials(parts); err != nil {
			return nil, err
		}
	}
	results := make([]*engine.Result, len(merged))
	for s, p := range merged {
		results[s] = p.Finalize()
	}
	return results, nil
}

// route gets every task served and returns the runs (table row
// coordinates, any order). Each round assigns the pending tasks to
// workers and runs one exchange per worker, all concurrently; a task a
// worker failed goes into the next round, on its next owner. Tasks left
// without a candidate, and tasks that failed by the query's own doing,
// run on the coordinator's replica, which covers every range.
func (b *Backend) route(ctx context.Context, t *engine.Table, q *engine.Query, gsets []engine.GroupingSet, tasks []task) ([]ShardRun, error) {
	pending := make([]*task, len(tasks))
	for i := range tasks {
		pending[i] = &tasks[i]
	}
	var local []*task
	req, err := EncodeShardRequest(q, gsets, "", 0, 0, q.Parallelism)
	if err != nil {
		// Not distributable (a predicate with no frame form).
		for _, tk := range pending {
			tk.err, tk.fault = err, true
		}
		local, pending = pending, nil
	}
	want := max(len(gsets), 1)
	var runs []ShardRun
	for len(pending) > 0 {
		plan, idle := b.assign(pending)
		local = append(local, idle...)
		outs := make([]exchangeOut, len(plan))
		var wg sync.WaitGroup
		for i, x := range plan {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[i] = b.exchange(ctx, x.m, t, q, *req, x.tasks, want)
			}()
		}
		wg.Wait()
		pending = nil
		for i, out := range outs {
			if out.err != nil {
				return nil, out.err // cancelled, not a worker fault
			}
			runs = append(runs, out.runs...)
			for _, tk := range out.failed {
				if tk.fault {
					local = append(local, tk) // no owner can do better
					continue
				}
				// Next round, without the worker that just failed it.
				tk.owners = slices.DeleteFunc(slices.Clone(tk.owners), func(m *member) bool { return m == plan[i].m })
				pending = append(pending, tk)
			}
		}
		slices.SortFunc(pending, func(x, y *task) int { return cmp.Compare(x.lo, y.lo) })
	}

	b.failovers.Add(int64(len(local)))
	// Each local scan gets its fair share of the parallelism, so a mass
	// failover uses one machine's worth of workers. No wire round-trip:
	// predicates with no frame form are perfectly runnable here.
	out := make([]ShardRun, len(local))
	errs := make([]error, len(local))
	var wg sync.WaitGroup
	for i, tk := range local {
		wg.Add(1)
		go func() {
			defer wg.Done()
			span := obs.TraceFrom(ctx).StartSpan("shard-exec").SetAttr("shard", "coordinator").
				SetAttr("fragment", tk.frag.name).SetAttr("rows", strconv.Itoa(tk.lo)+":"+strconv.Itoa(tk.hi))
			defer span.Finish()
			sub := *q
			sub.RowLo, sub.RowHi = tk.lo, tk.hi
			sub.Parallelism = max(q.Parallelism/len(local), 1)
			sub.OrderBy, sub.Limit = nil, 0 // ordering is applied after the merge
			out[i] = ShardRun{Lo: tk.lo, Hi: tk.hi}
			out[i].Partials, errs[i] = b.ex.RunPartials(ctx, &sub, gsets)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return append(runs, out...), nil
}

// assign gives each pending task (row order) to one usable worker that
// holds its fragment: the previous task's worker while that is also a
// candidate here and below its fair share — so a worker's tasks form
// long row-adjacent runs it can pre-merge — else the least-loaded
// candidate, ties to ring order. Deterministic for a given fleet state.
// idle tasks have no candidate; owners that are cooling down or known
// not to hold the fragment are skipped without blame.
func (b *Backend) assign(tasks []*task) (plan []exchangePlan, idle []*task) {
	usable := map[*member]bool{}
	n := 0
	for _, m := range b.members() {
		if usable[m] = m.usable(b.cfg.Cooldown); usable[m] {
			n++
		}
	}
	share := (len(tasks) + n - 1) / max(n, 1)
	by := map[*member]*exchangePlan{}
	var order []*exchangePlan // first-candidacy order
	var prev *exchangePlan
	for _, tk := range tasks {
		var pick *exchangePlan
		for _, m := range tk.owners {
			if !usable[m] {
				tk.err = fmt.Errorf("cluster: worker %s is cooling down after failure", m.w.ID())
				continue
			}
			if _, held := m.hold(tk.frag.name); !held {
				tk.err = fmt.Errorf("cluster: worker %s does not hold fragment %s", m.w.ID(), tk.frag.name)
				continue
			}
			x := by[m]
			if x == nil {
				x = &exchangePlan{m: m}
				by[m] = x
				order = append(order, x)
			}
			if x == prev && len(x.tasks) < share {
				pick = x
				break
			}
			if pick == nil || len(x.tasks) < len(pick.tasks) {
				pick = x
			}
		}
		if prev = pick; pick == nil {
			idle = append(idle, tk)
			continue
		}
		pick.tasks = append(pick.tasks, tk)
	}
	for _, x := range order {
		// One request per worker, short of the protocol's bound.
		for part := range slices.Chunk(x.tasks, MaxExchangeFragments) {
			plan = append(plan, exchangePlan{m: x.m, tasks: part})
		}
	}
	return plan, idle
}

// exchangePlan is one worker's share of a round; exchangeOut what came
// of it: the runs it served, the tasks it did not (their err and fault
// say why), and err only when the scatter's context ended.
type exchangePlan struct {
	m     *member
	tasks []*task
}

type exchangeOut struct {
	runs   []ShardRun
	failed []*task
	err    error
}

// exchange sends m its tasks as one request, with one retry. Rows are
// rebased to each fragment (whose row 0 is absolute row frag.lo) and
// SampleBase is advanced by the same offset, so the worker's scan is
// positionally indistinguishable from the same rows of a whole-table
// scan. A failed task with fault set blames nobody; any other failure
// has been charged to m's health.
func (b *Backend) exchange(ctx context.Context, m *member, t *engine.Table, q *engine.Query, req ShardRequest, tasks []*task, want int) (out exchangeOut) {
	span := obs.TraceFrom(ctx).StartSpan("shard-exec").SetAttr("shard", m.w.ID()).
		SetAttr("fragments", strconv.Itoa(len(tasks))).
		SetAttr("rows", strconv.Itoa(tasks[0].lo)+":"+strconv.Itoa(tasks[len(tasks)-1].hi))
	defer span.Finish()

	req.Fragments = nil
	var sent []*task
	for _, tk := range tasks {
		if tk.hash == "" {
			if tk.hash, tk.err = tk.frag.hash(); tk.err != nil {
				tk.fault = true
				out.failed = append(out.failed, tk)
				continue
			}
		}
		sent = append(sent, tk)
		req.Fragments = append(req.Fragments, ShardFragment{Table: tk.frag.name, ContentHash: tk.hash,
			SampleBase: q.SampleBase + tk.frag.lo, RowLo: tk.lo - tk.frag.lo, RowHi: tk.hi - tk.frag.lo})
	}
	if len(sent) == 0 {
		return out
	}

	var resp *ShardResponse
	for attempt := 0; ; attempt++ {
		if out.err = ctx.Err(); out.err != nil {
			return out
		}
		b.shardCalls.Add(1)
		t0 := time.Now()
		var err error
		resp, err = m.w.ExecPartials(ctx, &req)
		d := time.Since(t0)
		m.mu.Lock()
		m.execs++
		m.execNanos += int64(d)
		m.mu.Unlock()
		if h := b.rpcSeconds.Load(); h != nil {
			h.With(m.w.ID()).Observe(d.Seconds())
		}
		if err == nil {
			if err = checkResponse(resp, req.Fragments, want); err == nil {
				break
			}
			err = fmt.Errorf("cluster: worker %s: %w", m.w.ID(), err)
		}
		if ctx.Err() != nil {
			out.err = err
			return out
		}
		var qf *queryFaultError
		if fault := errors.As(err, &qf); fault || attempt == retries {
			if !fault {
				m.markFailure()
			}
			for _, tk := range sent {
				tk.err, tk.fault = err, fault
			}
			out.failed = append(out.failed, sent...)
			return out
		}
		b.retriesN.Add(1)
	}

	for _, r := range resp.Runs {
		out.runs = append(out.runs, ShardRun{Lo: r.Lo - q.SampleBase, Hi: r.Hi - q.SampleBase, Partials: r.Partials})
	}
	blame := false
	for _, st := range resp.Failed {
		tk := sent[st.Fragment]
		tk.err = fmt.Errorf("cluster: worker %s: %s", m.w.ID(), st.Error)
		out.failed = append(out.failed, tk)
		if st.Status == http.StatusConflict {
			// The worker's fragment really diverged, or an ingest landed
			// between our hash and the worker running the request (the
			// worker is AHEAD, not wrong). Re-derive the fragment: if our
			// own hash moved it is version skew from a racing append —
			// re-plan locally, blame nobody.
			tk.err = &FingerprintMismatchError{Shard: m.w.ID(), Table: tk.frag.name, Want: tk.hash, Got: st.ContentHash}
			if cur := b.layout.fragments(t, t.NumRows(), tk.frag.lo, tk.frag.lo+1); len(cur) == 1 {
				if now, herr := cur[0].hash(); herr == nil && now != tk.hash {
					tk.err, tk.fault = fmt.Errorf("cluster: table %q mutated mid-scatter: %w", q.Table, tk.err), true
					continue
				}
			}
			b.mismatches.Add(1)
		}
		// Lost or diverged: permanent for this owner until re-shipped.
		m.setHold(tk.frag.name, "")
		blame = true
	}
	if blame {
		m.markFailure()
	} else {
		m.markHealthy()
	}
	return out
}

// ---------------------------------------------------------------------
// Append: the coordinator's half of the append path

// ShardIngestStatus reports one owner's outcome for one fragment a
// forwarded append touched.
type ShardIngestStatus struct {
	// ID is "worker/fragment".
	ID string `json:"id"`
	OK bool   `json:"ok"`
	// Rows and ContentHash are the fragment's post-append state (zero
	// on error).
	Rows        int    `json:"rows,omitempty"`
	ContentHash string `json:"contentHash,omitempty"`
	// Diverged means the owner applied the append but its hash no
	// longer matches the coordinator's: permanent drift, the worker is
	// marked unhealthy.
	Diverged bool   `json:"diverged,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Append applies a batched append through the node's placement store —
// the durability seam, which also picks a failure's status — then, per
// fragment the delta touches and per owner of it, forwards exactly the
// delta rows that fall inside, rendered by engine.FormatRowsWire (or
// ships the fragment whole when this append gave birth to it or the
// owner missed it) and verifies the post-append content hash. One
// batch is in flight fleet-wide at a time (ingestMu), so owners apply
// identical deltas in identical order; the owners of one fragment are
// independent and are forwarded to concurrently.
//
// An owner that fails to apply (or diverges) is marked unhealthy and
// reported in Shards rather than failing the append: scatters
// re-verify hashes per request, so another owner or the coordinator
// covers its ranges until a rebalance re-ships it. Every touched
// fragment is re-hashed per batch on every owner (and the table on the
// coordinator); the tables' digest memos make that cost the cells the
// batch sealed plus the unsealed tail.
func (b *Backend) Append(ctx context.Context, table string, rows [][]engine.Value) (*IngestResponse, int, error) {
	b.ingestMu.Lock()
	defer b.ingestMu.Unlock()

	resp, t, status, err := b.store.grow(table, rows, true)
	if err != nil {
		return nil, status, err
	}
	b.ingests.Add(1)
	b.ingestRows.Add(int64(len(rows)))
	if t == nil { // a placement held for another coordinator
		return resp, status, nil
	}
	oldRows := resp.Rows - resp.Appended
	var wire [][]any
	for _, f := range b.layout.fragments(t, resp.Rows, oldRows, resp.Rows) {
		b.mu.RLock()
		owners := b.layout.owners(f, &b.fleet)
		b.mu.RUnlock()
		if len(owners) == 0 {
			continue
		}
		expected, err := f.hash()
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		if wire == nil {
			wire = engine.FormatRowsWire(rows)
		}
		delta := wire[max(f.lo-oldRows, 0) : f.hi-oldRows]
		statuses := make([]ShardIngestStatus, len(owners))
		var wg sync.WaitGroup
		for i, m := range owners {
			wg.Add(1)
			go func() {
				defer wg.Done()
				statuses[i] = b.forward(ctx, m, t, f, expected, delta, f.lo < oldRows)
			}()
		}
		wg.Wait()
		resp.Shards = append(resp.Shards, statuses...)
	}
	return resp, http.StatusOK, nil
}

// forward brings one owner's copy of f up to the post-append state:
// the delta rows when the fragment pre-existed and the owner holds it,
// the whole fragment otherwise.
func (b *Backend) forward(ctx context.Context, m *member, t *engine.Table, f fragment, expected string, delta [][]any, existed bool) ShardIngestStatus {
	st := ShardIngestStatus{ID: m.w.ID() + "/" + f.name}
	if _, held := m.hold(f.name); !existed || !held {
		if _, err := b.shipFragment(ctx, m, t, f, expected); err != nil {
			st.Error = err.Error()
			m.markFailure()
			return st
		}
		st.OK, st.Rows, st.ContentHash = true, f.hi-f.lo, expected
		return st
	}
	resp, err := m.w.Ingest(ctx, &IngestRequest{Table: f.name, Rows: delta, Verify: true})
	switch {
	case err != nil:
		st.Error = err.Error()
	case resp.ContentHash != expected:
		st.Rows, st.ContentHash, st.Diverged = resp.Rows, resp.ContentHash, true
		st.Error = fmt.Sprintf("fragment diverged after append (want %s, got %s)", expected, resp.ContentHash)
		b.mismatches.Add(1)
	default:
		st.OK, st.Rows, st.ContentHash = true, resp.Rows, resp.ContentHash
		m.setHold(f.name, expected)
		return st
	}
	m.markFailure()
	m.setHold(f.name, "")
	return st
}

// ---------------------------------------------------------------------
// Rebalancing

// RebalanceReport describes one rebalance pass.
type RebalanceReport struct {
	Epoch uint64 `json:"epoch"`
	// Fragment movements this pass, and their serialized size.
	Shipped    int   `json:"shipped"`
	Dropped    int   `json:"dropped"`
	BytesMoved int64 `json:"bytesMoved"`
	// PerWorker is each worker's fragment count after the pass.
	PerWorker map[string]int `json:"perWorker"`
	// Errors lists workers that could not be brought in line; the map
	// converges on a later pass once they are reachable (or removed).
	Errors []string `json:"errors,omitempty"`
}

// Rebalance diffs every worker's inventory against the layout's
// current assignment and reconciles: ship owned-but-missing (or
// diverged) fragments from the coordinator's replica, drop
// no-longer-owned ones (and placements of dropped tables). Ingest is
// held for the duration, so the shipped bytes are a consistent cut.
func (b *Backend) Rebalance(ctx context.Context) (*RebalanceReport, error) {
	b.ingestMu.Lock()
	defer b.ingestMu.Unlock()
	return b.rebalanceLocked(ctx)
}

func (b *Backend) rebalanceLocked(ctx context.Context) (*RebalanceReport, error) {
	b.rebalances.Add(1)
	members := b.members()
	rep := &RebalanceReport{Epoch: b.epoch.Load(), PerWorker: map[string]int{}}

	for _, m := range members {
		m.mu.Lock()
		unknown := m.holds == nil
		m.mu.Unlock()
		if unknown { // joined without an inventory: take it now
			holds := inventory(ctx, m.w)
			m.mu.Lock()
			m.holds = holds
			m.mu.Unlock()
		}
	}

	owned := map[[2]string]bool{} // {worker, fragment}
	for _, table := range b.ex.Catalog().TableNames() {
		t, err := b.ex.Catalog().Table(table)
		if err != nil {
			continue // dropped between listing and lookup
		}
		rows := t.NumRows()
		for _, f := range b.layout.fragments(t, rows, 0, rows) {
			b.mu.RLock()
			owners := b.layout.owners(f, &b.fleet)
			b.mu.RUnlock()
			expected := ""
			for _, m := range owners {
				owned[[2]string{m.w.ID(), f.name}] = true
				if expected == "" {
					if expected, err = f.hash(); err != nil {
						return nil, err
					}
				}
				if has, held := m.hold(f.name); held && has == expected {
					continue
				}
				nbytes, err := b.shipFragment(ctx, m, t, f, expected)
				if err != nil {
					rep.Errors = append(rep.Errors, fmt.Sprintf("%s %s: %v", m.w.ID(), f.name, err))
					m.markFailure()
					continue
				}
				rep.Shipped++
				rep.BytesMoved += int64(nbytes)
			}
		}
	}
	// Under the placed layout a worker drops every placement it no
	// longer owns, a dropped table's included. Whole tables never go:
	// a worker's may serve another coordinator.
	for _, m := range members {
		m.mu.Lock()
		held := slices.Sorted(maps.Keys(m.holds))
		m.mu.Unlock()
		for _, name := range held {
			if _, ok := fragmentSource(name); !ok || b.cfg.Replication == 0 || owned[[2]string{m.w.ID(), name}] {
				continue
			}
			if err := m.w.DropTable(ctx, name); err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s drop %s: %v", m.w.ID(), name, err))
				m.markFailure()
				continue
			}
			m.setHold(name, "")
			b.fragDropped.Add(1)
			rep.Dropped++
		}
	}
	for _, m := range members {
		rep.PerWorker[m.w.ID()] = m.status().Fragments
	}
	return rep, nil
}

// shipFragment serializes f as the worker-side table, pushes the
// snapshot, and verifies the ContentHash handshake — replica bootstrap
// when f is a whole table. Returns the snapshot's size in bytes.
func (b *Backend) shipFragment(ctx context.Context, m *member, t *engine.Table, f fragment, expected string) (int, error) {
	frag, err := f.extract(t)
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := engine.WriteTableSnapshot(&buf, frag); err != nil {
		return 0, err
	}
	lo := -1 // a whole table
	if f.name != f.table {
		lo = f.lo
	}
	resp, err := m.w.SyncTable(ctx, f.name, lo, buf.Bytes())
	if err != nil {
		return 0, err
	}
	if resp.ContentHash != expected {
		return 0, &FingerprintMismatchError{Shard: m.w.ID(), Table: f.name, Want: expected, Got: resp.ContentHash}
	}
	m.setHold(f.name, expected)
	b.fragShipped.Add(1)
	b.moveBytes.Add(int64(buf.Len()))
	return buf.Len(), nil
}

// ---------------------------------------------------------------------
// Introspection

// ShardStatus is one worker's health and accounting snapshot. Execs
// and AvgMillis count every exchange attempted with the worker (what
// seedb_shard_rpc_seconds observes); Fragments is its verified
// inventory (0 while never taken).
type ShardStatus struct {
	ID          string    `json:"id"`
	Healthy     bool      `json:"healthy"`
	Failures    int64     `json:"failures"`
	LastFailure time.Time `json:"lastFailure,omitzero"`
	Execs       int64     `json:"execs"`
	AvgMillis   float64   `json:"avgMillis"`
	Fragments   int       `json:"fragments"`
}

// Status snapshots every worker, in join order.
func (b *Backend) Status() []ShardStatus {
	members := b.members()
	out := make([]ShardStatus, len(members))
	for i, m := range members {
		out[i] = m.status()
	}
	return out
}

// HealthCheck probes every worker once, updates health state, and
// returns the post-probe status.
func (b *Backend) HealthCheck(ctx context.Context) []ShardStatus {
	var wg sync.WaitGroup
	for _, m := range b.members() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.w.Health(ctx); err != nil {
				m.markFailure()
			} else {
				m.markHealthy()
			}
		}()
	}
	wg.Wait()
	return b.Status()
}

// Stats is the backend's cumulative counters plus the current
// ownership shape.
type Stats struct {
	Replication     int     `json:"replication"`
	PlacementChunks int     `json:"placementChunks"`
	Epoch           uint64  `json:"epoch"`
	Workers         int     `json:"workers"`
	Placements      int     `json:"placements"`
	MaxPerWorker    int     `json:"maxPerWorker"`
	MeanPerWorker   float64 `json:"meanPerWorker"`
	Scatters        int64   `json:"scatters"`
	// ShardCalls counts exchanges attempted with workers — one per worker
	// per scan, plus retries and re-cuts — while Failovers and Mismatches
	// count fragments; RangeCalls is ShardCalls under its old
	// placement-backend name, kept only until the frozen benchmark/ stops
	// reading it.
	ShardCalls       int64 `json:"shardCalls"`
	RangeCalls       int64 `json:"rangeCalls"`
	Retries          int64 `json:"retries"`
	Failovers        int64 `json:"failovers"`
	Mismatches       int64 `json:"mismatches"`
	Ingests          int64 `json:"ingests"`
	IngestRows       int64 `json:"ingestRows"`
	Rebalances       int64 `json:"rebalances"`
	FragmentsShipped int64 `json:"fragmentsShipped"`
	FragmentsDropped int64 `json:"fragmentsDropped"`
	RebalanceBytes   int64 `json:"rebalanceBytes"`
}

// Counters snapshots the backend counters. Placements is the fragment
// count across tables right now; Max/MeanPerWorker describe ownership.
func (b *Backend) Counters() Stats {
	calls := b.shardCalls.Load()
	st := Stats{
		Replication:      b.cfg.Replication,
		PlacementChunks:  b.cfg.PlacementChunks,
		Epoch:            b.epoch.Load(),
		Scatters:         b.scatters.Load(),
		ShardCalls:       calls,
		RangeCalls:       calls,
		Retries:          b.retriesN.Load(),
		Failovers:        b.failovers.Load(),
		Mismatches:       b.mismatches.Load(),
		Ingests:          b.ingests.Load(),
		IngestRows:       b.ingestRows.Load(),
		Rebalances:       b.rebalances.Load(),
		FragmentsShipped: b.fragShipped.Load(),
		FragmentsDropped: b.fragDropped.Load(),
		RebalanceBytes:   b.moveBytes.Load(),
	}
	for _, name := range b.ex.Catalog().TableNames() {
		if t, err := b.ex.Catalog().Table(name); err == nil {
			st.Placements += len(b.layout.fragments(t, t.NumRows(), 0, t.NumRows()))
		}
	}
	total := 0
	for _, ws := range b.Status() {
		st.Workers++
		total += ws.Fragments
		st.MaxPerWorker = max(st.MaxPerWorker, ws.Fragments)
	}
	if st.Workers > 0 {
		st.MeanPerWorker = float64(total) / float64(st.Workers)
	}
	return st
}

// PlacementOwner is one owner's view of a placement in a Dump.
type PlacementOwner struct {
	Worker string `json:"worker"`
	// Held: the verified inventory carries it at the expected hash.
	Held bool `json:"held"`
}

// PlacementInfo is one fragment in a Dump.
type PlacementInfo struct {
	Index       int              `json:"index"`
	RowLo       int              `json:"rowLo"`
	RowHi       int              `json:"rowHi"`
	Fragment    string           `json:"fragment"`
	ContentHash string           `json:"contentHash"`
	Owners      []PlacementOwner `json:"owners"`
}

// TablePlacements is one table's fragment map in a Dump.
type TablePlacements struct {
	Table      string          `json:"table"`
	Rows       int             `json:"rows"`
	Placements []PlacementInfo `json:"placements"`
}

// PlacementDump is the full fragment map (the /api/shard/map body).
type PlacementDump struct {
	Replication     int               `json:"replication"`
	PlacementChunks int               `json:"placementChunks"`
	Epoch           uint64            `json:"epoch"`
	Workers         []string          `json:"workers"`
	Tables          []TablePlacements `json:"tables"`
}

// Dump snapshots the fragment map: every table's fragments with their
// expected hash, assigned owners, and whether each verifiably holds it.
func (b *Backend) Dump() (*PlacementDump, error) {
	d := &PlacementDump{Replication: b.cfg.Replication, PlacementChunks: b.cfg.PlacementChunks, Epoch: b.epoch.Load()}
	for _, m := range b.members() {
		d.Workers = append(d.Workers, m.w.ID())
	}
	slices.Sort(d.Workers)
	for _, name := range b.ex.Catalog().TableNames() {
		t, err := b.ex.Catalog().Table(name)
		if err != nil {
			continue
		}
		rows := t.NumRows()
		tp := TablePlacements{Table: name, Rows: rows}
		for _, f := range b.layout.fragments(t, rows, 0, rows) {
			hash, err := f.hash()
			if err != nil {
				return nil, err
			}
			pi := PlacementInfo{Index: f.idx, RowLo: f.lo, RowHi: f.hi, Fragment: f.name, ContentHash: hash}
			b.mu.RLock()
			owners := b.layout.owners(f, &b.fleet)
			b.mu.RUnlock()
			for _, m := range owners {
				held, _ := m.hold(f.name)
				pi.Owners = append(pi.Owners, PlacementOwner{Worker: m.w.ID(), Held: held == hash})
			}
			tp.Placements = append(tp.Placements, pi)
		}
		d.Tables = append(d.Tables, tp)
	}
	return d, nil
}
