package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seedb/internal/core"
	"seedb/internal/engine"
	"seedb/internal/obs"
	"seedb/internal/sql"
)

// Config tunes the service layer.
type Config struct {
	// MaxSessions caps the session registry (<= 0 selects 1024). At
	// the cap, creating a session evicts the one idle the longest, so
	// clients that never close sessions cannot grow memory without
	// bound.
	MaxSessions int
	// MaxConcurrentRuns bounds how many recommendation pipelines
	// execute simultaneously; further runs queue for a worker slot.
	// <= 0 selects one per core (minimum 2).
	MaxConcurrentRuns int
	// MaxQueueDepth bounds how many admitted runs may wait for a
	// worker slot before new work is shed with ErrOverloaded (HTTP
	// 503 + Retry-After). <= 0 selects 64.
	MaxQueueDepth int

	// DisableObservability leaves the obs hub uninstalled: no metrics
	// registry, no tracing, and the frontend's /metrics and /api/trace
	// endpoints answer 404. Instrumentation is observation-only either
	// way — results are byte-identical with the hub on or off.
	DisableObservability bool
}

// Manager is the concurrent entry point of the service layer: it owns
// the shared view-result cache (installed into the core engine) and a
// registry of analyst sessions. All methods are safe for concurrent
// use; any number of sessions may issue requests in parallel and they
// all share cached work.
type Manager struct {
	eng         *core.Engine
	cache       *ViewCache
	sched       *scheduler
	maxSessions int
	hub         atomic.Pointer[obs.Hub]

	mu       sync.RWMutex
	sessions map[string]*Session
	anon     *Session
}

// NewManager builds the service layer over a core engine and installs
// its cache. Safe to call on a live engine: SetCache swaps the cache
// atomically and in-flight plans keep the snapshot they started with.
func NewManager(eng *core.Engine, cfg Config) *Manager {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	m := &Manager{
		eng:         eng,
		cache:       NewViewCache(0),
		maxSessions: cfg.MaxSessions,
		sessions:    make(map[string]*Session),
	}
	m.sched = newScheduler(m, cfg.MaxConcurrentRuns, cfg.MaxQueueDepth)
	eng.SetCache(m.cache)
	// Incremental execution: the partial store sits below the view
	// cache. The view cache answers "this exact query against this exact
	// table version"; on a version bump (append) it misses, and the
	// recompute falls through to the store, which reuses the plan's
	// sealed run and scans only the delta. Respect a store a caller
	// installed beforehand (benchmarks do).
	if eng.Executor().PartialStore() == nil {
		eng.Executor().SetPartialStore(engine.NewPartialStore(0))
	}
	return m
}

// SetObservability installs the obs hub: scrape-time collectors over
// the scheduler, view-cache, and partial-store counters (reading the
// very atomics /api/stats reports, so the two surfaces can never
// disagree), event-time histograms for queue wait / run / phase
// durations, and per-run tracing. Passing nil uninstalls everything.
// Installation is observation-only: no instrumented path changes its
// result bytes whether a hub is present or not.
func (m *Manager) SetObservability(h *obs.Hub) {
	if h == nil {
		m.hub.Store(nil)
		m.sched.obs.Store(nil)
		return
	}
	m.hub.Store(h)
	reg := h.Metrics
	sch := m.sched
	reg.CounterFunc("seedb_scheduler_runs_started_total", "Pipelines that began executing.",
		func() float64 { return float64(sch.started.Load()) })
	reg.CounterFunc("seedb_scheduler_runs_completed_total", "Pipelines that finished (success or error).",
		func() float64 { return float64(sch.completed.Load()) })
	reg.CounterFunc("seedb_scheduler_coalesced_total", "Requests that joined an in-flight identical run.",
		func() float64 { return float64(sch.coalesced.Load()) })
	reg.CounterFunc("seedb_scheduler_queued_total", "Runs admitted to the worker queue.",
		func() float64 { return float64(sch.queuedTotal.Load()) })
	reg.CounterFunc("seedb_scheduler_shed_total", "Requests rejected by admission control.",
		func() float64 { return float64(sch.shed.Load()) })
	reg.GaugeFunc("seedb_scheduler_queue_depth", "Runs waiting for a worker slot right now.",
		func() float64 { return float64(sch.queued.Load()) })
	reg.GaugeFunc("seedb_scheduler_running", "Pipelines holding a worker slot right now.",
		func() float64 { return float64(sch.running.Load()) })
	c := m.cache
	reg.CounterFunc("seedb_cache_hits_total", "View-cache lookups answered from memory.",
		func() float64 { return float64(c.hits.Load()) })
	reg.CounterFunc("seedb_cache_misses_total", "View-cache lookups that computed (one scan each).",
		func() float64 { return float64(c.misses.Load()) })
	reg.CounterFunc("seedb_cache_shared_total", "View-cache lookups that joined a concurrent identical miss.",
		func() float64 { return float64(c.shared.Load()) })
	reg.CounterFunc("seedb_cache_evictions_total", "View-cache entries evicted to stay under the byte budget.",
		func() float64 { return float64(c.Stats().Evictions) })
	reg.GaugeFunc("seedb_cache_entries", "View-cache entries resident.",
		func() float64 { return float64(c.Stats().Entries) })
	reg.GaugeFunc("seedb_cache_bytes", "View-cache resident bytes (estimated).",
		func() float64 { return float64(c.Stats().Bytes) })
	reg.CounterFunc("seedb_pstore_hits_total", "Partial-store run lookups that found a valid sealed run (a where-free scan looks up one run per grouping set's predicate-free part plus one for the rest).",
		func() float64 { return float64(m.PartialStoreStats().Hits) })
	reg.CounterFunc("seedb_pstore_misses_total", "Partial-store run lookups that found no usable run.",
		func() float64 { return float64(m.PartialStoreStats().Misses) })
	reg.CounterFunc("seedb_pstore_evictions_total", "Partial-store runs evicted to stay under the byte budget.",
		func() float64 { return float64(m.PartialStoreStats().Evictions) })
	reg.CounterFunc("seedb_pstore_rows_reused_total", "Rows a stored run stood in for, counted once per hit run.",
		func() float64 { return float64(m.PartialStoreStats().RowsReused) })
	reg.CounterFunc("seedb_pstore_rows_scanned_total", "Rows scanned on the incremental path.",
		func() float64 { return float64(m.PartialStoreStats().RowsScanned) })
	reg.GaugeFunc("seedb_pstore_entries", "Partial-store runs resident.",
		func() float64 { return float64(m.PartialStoreStats().Entries) })
	reg.GaugeFunc("seedb_pstore_bytes", "Partial-store resident bytes (estimated).",
		func() float64 { return float64(m.PartialStoreStats().Bytes) })
	reg.GaugeFunc("seedb_sessions", "Live analyst sessions.",
		func() float64 { return float64(m.SessionCount()) })
	m.sched.obs.Store(&schedObs{
		tracer: h.Traces,
		queueWait: reg.Histogram("seedb_scheduler_queue_wait_seconds",
			"Time a run waited for a worker slot.", obs.DefBuckets),
		runDur: reg.Histogram("seedb_run_duration_seconds",
			"Wall time of one pipeline run.", obs.DefBuckets),
		phaseDur: reg.Histogram("seedb_phase_duration_seconds",
			"Wall time between phased-execution progress snapshots.", obs.DefBuckets),
		phasePruned: reg.Counter("seedb_phase_pruned_total",
			"Views discarded by confidence-interval pruning at phase boundaries."),
		runsByOp: reg.CounterVec("seedb_runs_by_operator_total",
			"Pipelines that began executing, by exploration operator.", "operator"),
	})
}

// Observability returns the installed obs hub, or nil.
func (m *Manager) Observability() *obs.Hub { return m.hub.Load() }

// PartialStoreStats snapshots the engine's partial-store counters;
// the zero value comes back when no store is installed.
func (m *Manager) PartialStoreStats() engine.PartialStoreStats {
	if st := m.eng.Executor().PartialStore(); st != nil {
		return st.Stats()
	}
	return engine.PartialStoreStats{}
}

// Engine returns the underlying core engine.
func (m *Manager) Engine() *core.Engine { return m.eng }

// Cache returns the shared view-result cache.
func (m *Manager) Cache() *ViewCache { return m.cache }

// CacheStats snapshots the shared cache counters.
func (m *Manager) CacheStats() CacheStats { return m.cache.Stats() }

// SchedulerStats snapshots the workload scheduler counters
// (coalescing, queueing, shedding).
func (m *Manager) SchedulerStats() SchedulerStats { return m.sched.Stats() }

// NewSession registers a session with the given default options.
// Session IDs are random (not sequential), so holding an ID is the
// capability to use — and close — that session and no other. At the
// configured cap the longest-idle session is evicted first.
func (m *Manager) NewSession(opts core.Options) *Session {
	now := time.Now()
	s := &Session{
		id:      newSessionID(),
		manager: m,
		opts:    opts,
		created: now,
	}
	s.lastUsed.Store(now.UnixNano())
	m.mu.Lock()
	for _, taken := m.sessions[s.id]; taken; _, taken = m.sessions[s.id] {
		s.id = newSessionID()
	}
	for len(m.sessions) >= m.maxSessions {
		var victim *Session
		for _, cand := range m.sessions {
			if cand.pinned.Load() || cand.inflight.Load() > 0 {
				// Never evict a session with a run or stream in flight:
				// lastUsed is stamped at request *start*, so a session
				// holding a long SSE stream looks idle exactly while it
				// is busiest, and evicting it would 404 its later
				// requests and resumes mid-exploration.
				continue
			}
			if victim == nil || cand.lastUsed.Load() < victim.lastUsed.Load() {
				victim = cand
			}
		}
		if victim == nil {
			break // only pinned/busy sessions left; exceed the cap rather than break them
		}
		delete(m.sessions, victim.id)
	}
	m.sessions[s.id] = s
	m.mu.Unlock()
	return s
}

// newSessionID returns an unguessable session identifier.
func newSessionID() string {
	var buf [12]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// crypto/rand never fails on supported platforms; panicking
		// beats handing out predictable IDs.
		panic(fmt.Sprintf("service: reading random session id: %v", err))
	}
	return "s-" + hex.EncodeToString(buf[:])
}

// AnonymousSession returns the manager's shared, pinned session for
// requests that carry no session ID. It is created once per Manager —
// servers constructed over the same DB share it instead of each
// pinning (and leaking) their own.
func (m *Manager) AnonymousSession() *Session {
	m.mu.RLock()
	a := m.anon
	m.mu.RUnlock()
	if a != nil {
		return a
	}
	s := m.NewSession(core.DefaultOptions())
	s.Pin()
	m.mu.Lock()
	if m.anon == nil {
		m.anon = s
		m.mu.Unlock()
		return s
	}
	// Lost a creation race: discard ours, use the winner's.
	a = m.anon
	id := s.id
	m.mu.Unlock()
	m.CloseSession(id)
	return a
}

// Session looks up a live session by ID.
func (m *Manager) Session(id string) (*Session, error) {
	m.mu.RLock()
	s, ok := m.sessions[id]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("service: no session %q", id)
	}
	return s, nil
}

// CloseSession removes a session; it reports whether the ID was live.
// Requests already in flight on the session complete normally.
func (m *Manager) CloseSession(id string) bool {
	m.mu.Lock()
	_, ok := m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	return ok
}

// SessionIDs lists live session IDs, sorted. IDs are capabilities:
// this is for operators and tests, not for handing to clients.
func (m *Manager) SessionIDs() []string {
	m.mu.RLock()
	ids := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	m.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// SessionCount returns the number of live sessions.
func (m *Manager) SessionCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.sessions)
}

// Session is one analyst's exploration context: a stable ID, default
// recommendation options, and request accounting. Sessions are cheap —
// the expensive state (the view-result cache) is shared manager-wide,
// which is the whole point: overlapping exploration by different
// analysts reuses each other's scans.
type Session struct {
	id      string
	manager *Manager
	created time.Time

	optsMu sync.RWMutex
	opts   core.Options

	requests atomic.Int64
	lastUsed atomic.Int64 // unix nanos of the latest request (eviction order)
	pinned   atomic.Bool  // exempt from at-cap eviction
	inflight atomic.Int64 // runs/streams currently using the session (eviction pin)
}

// Pin exempts the session from at-cap idle eviction. Servers pin the
// sessions they own (e.g. the frontend's shared anonymous session) so
// client session churn cannot evict them.
func (s *Session) Pin() { s.pinned.Store(true) }

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Created returns the session creation time.
func (s *Session) Created() time.Time { return s.created }

// Requests returns how many recommendation calls the session served.
func (s *Session) Requests() int64 { return s.requests.Load() }

// Options returns the session's current default options.
func (s *Session) Options() core.Options {
	s.optsMu.RLock()
	defer s.optsMu.RUnlock()
	return s.opts
}

// SetOptions replaces the session's default options.
func (s *Session) SetOptions(opts core.Options) {
	s.optsMu.Lock()
	s.opts = opts
	s.optsMu.Unlock()
}

// effectiveOptions picks the per-call override or the session default.
func (s *Session) effectiveOptions(opts *core.Options) core.Options {
	if opts != nil {
		return *opts
	}
	return s.Options()
}

// Recommend runs the SeeDB pipeline for the analyst query q. opts
// overrides the session defaults for this call when non-nil. The call
// goes through the workload scheduler: a concurrent identical request
// (same table version, query, and effective options) shares one
// pipeline run, and under overload the request may be shed with
// ErrOverloaded instead of queueing past its deadline.
//
// The returned Result must be treated as read-only: coalesced callers
// receive the same instance (that is what makes their responses
// byte-identical), so mutating it would corrupt — or race — another
// caller's response. Copy before modifying.
func (s *Session) Recommend(ctx context.Context, q core.Query, opts *core.Options) (*core.Result, error) {
	s.touch()
	s.beginWork()
	defer s.endWork()
	return s.manager.sched.do(ctx, q, s.effectiveOptions(opts))
}

// RecommendSQL is Recommend with the analyst query given as SQL text.
// The statement must be a plain selection (it defines the data subset,
// not a view), optionally with a trailing EXPLORE clause selecting the
// exploration operator (e.g. "... EXPLORE trend").
func (s *Session) RecommendSQL(ctx context.Context, sqlText string, opts *core.Options) (*core.Result, error) {
	table, where, explore, err := sql.AnalystQueryExplore(sqlText, s.manager.eng.Executor().Catalog())
	if err != nil {
		return nil, err
	}
	opts = s.applyExplore(opts, explore)
	return s.Recommend(ctx, core.Query{Table: table, Predicate: where}, opts)
}

// applyExplore folds a SQL EXPLORE clause onto the request's effective
// option set: the clause is part of the query text, so it wins over
// both per-call options and session defaults. A nil clause returns
// opts unchanged.
func (s *Session) applyExplore(opts *core.Options, e *sql.ExploreClause) *core.Options {
	if e == nil {
		return opts
	}
	eff := s.effectiveOptions(opts)
	eff.Operator = e.Operator
	eff.ProbeFunc = e.ProbeFunc
	eff.ProbeMeasure = e.ProbeMeasure
	eff.ProbeDimension = e.ProbeDimension
	eff.ProbeBinWidth = e.ProbeBinWidth
	return &eff
}

// DrillDown refines a previous analyst query by one group of a
// recommended view and re-runs the recommendation (paper §1 step 4).
// The refined query is scheduled like any other request, so identical
// concurrent drill-downs coalesce too.
func (s *Session) DrillDown(ctx context.Context, q core.Query, view core.View, label string, opts *core.Options) (*core.Result, error) {
	s.touch()
	s.beginWork()
	defer s.endWork()
	refined, err := s.manager.eng.RefineQuery(q, view, label)
	if err != nil {
		return nil, err
	}
	return s.manager.sched.do(ctx, refined, s.effectiveOptions(opts))
}

// touch records a request for accounting and idle-eviction ordering.
func (s *Session) touch() {
	s.requests.Add(1)
	s.lastUsed.Store(time.Now().UnixNano())
}

// beginWork pins the session against at-cap eviction while a run or
// stream is using it; endWork drops the pin and refreshes lastUsed so
// a just-finished session is the freshest, not the stalest. The pin is
// taken under the manager's read lock so it serializes with the
// eviction scan (which holds the write lock): the scan can never
// observe a stale lastUsed with inflight still 0 while a request is
// in the middle of starting — the TOCTOU that would evict a session
// exactly as its stream begins.
func (s *Session) beginWork() {
	m := s.manager
	m.mu.RLock()
	s.lastUsed.Store(time.Now().UnixNano())
	s.inflight.Add(1)
	m.mu.RUnlock()
}

func (s *Session) endWork() {
	s.lastUsed.Store(time.Now().UnixNano())
	s.inflight.Add(-1)
}
