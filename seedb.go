// Package seedb is a Go implementation of SeeDB ("SEEDB: Automatically
// Generating Query Visualizations", VLDB 2014): a system that, given a
// query selecting a subset of a table, automatically finds and
// recommends the most "interesting" visualizations of that subset —
// the aggregate views whose distribution over the subset deviates most
// from the same view over the whole dataset.
//
// The library bundles everything the paper's architecture (Figure 4)
// requires: an embedded in-memory columnar SQL engine, a metadata
// collector, the view-space enumerator and pruner, the query-combining
// optimizer, the view processor with pluggable deviation metrics (EMD,
// Euclidean, KL, Jensen-Shannon), chart generation (SVG and terminal),
// and an HTTP frontend.
//
// Quickstart:
//
//	db := seedb.Open()
//	table, _ := db.LoadCSV("sales", csvReader)
//	res, _ := db.RecommendSQL(ctx,
//	    "SELECT * FROM sales WHERE product = 'Laserwave'",
//	    seedb.DefaultOptions())
//	for _, rec := range res.Recommendations {
//	    fmt.Println(rec.Rank, rec.Data.View, rec.Data.Utility)
//	    fmt.Print(seedb.Chart(rec.Data, true).ASCII(80))
//	}
package seedb

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"seedb/internal/cluster"
	"seedb/internal/core"
	"seedb/internal/engine"
	"seedb/internal/obs"
	"seedb/internal/service"
	"seedb/internal/sql"
	"seedb/internal/stats"
	"seedb/internal/viz"
	"seedb/internal/wal"
)

// Re-exported storage types. The aliases make the embedded engine's
// vocabulary part of the public API without duplicating it.
type (
	// Value is a dynamically typed scalar (cell value, predicate
	// constant).
	Value = engine.Value
	// Type is a column storage type.
	Type = engine.Type
	// ColumnDef declares one column of a schema.
	ColumnDef = engine.ColumnDef
	// Schema is an ordered list of column definitions.
	Schema = engine.Schema
	// Table is an in-memory columnar table.
	Table = engine.Table
	// Predicate filters rows (the analyst query's WHERE clause).
	Predicate = engine.Predicate
	// AggFunc is an aggregate function identifier.
	AggFunc = engine.AggFunc
	// QueryResult is a materialized tabular result.
	QueryResult = engine.Result
)

// Column types.
const (
	TypeInt    = engine.TypeInt
	TypeFloat  = engine.TypeFloat
	TypeString = engine.TypeString
	TypeTime   = engine.TypeTime
)

// Aggregate functions.
const (
	AggCount    = engine.AggCount
	AggSum      = engine.AggSum
	AggAvg      = engine.AggAvg
	AggMin      = engine.AggMin
	AggMax      = engine.AggMax
	AggVariance = engine.AggVariance
	AggStddev   = engine.AggStddev
)

// Re-exported recommendation types.
type (
	// Options configures Recommend; see DefaultOptions and
	// BasicOptions.
	Options = core.Options
	// CombineMode selects the multi-group-by combining strategy.
	CombineMode = core.CombineMode
	// Query is the analyst's input query (table + predicate).
	Query = core.Query
	// Result is the outcome of a Recommend call.
	Result = core.Result
	// Recommendation is one ranked view.
	Recommendation = core.Recommendation
	// ViewData is a fully evaluated view with its distributions.
	ViewData = core.ViewData
	// View is the (dimension, measure, aggregate) triple.
	View = core.View
	// ViewScore pairs a view with its utility.
	ViewScore = core.ViewScore
	// RunStats reports pruning and execution effort for a run.
	RunStats = core.RunStats
	// ProgressListener observes a running recommendation (see
	// RecommendProgress).
	ProgressListener = core.ProgressListener
	// ProgressSnapshot is one immutable observation of a running
	// recommendation: the interim ranking, its confidence bounds, and
	// any views pruned at this phase boundary.
	ProgressSnapshot = core.ProgressSnapshot
	// ProgressEntry is one view's position in an interim ranking.
	ProgressEntry = core.ProgressEntry
	// ChartSpec is a renderable chart (ASCII or SVG).
	ChartSpec = viz.Spec
	// TableStats summarizes a table's metadata.
	TableStats = stats.TableStats
	// ExplorationOperator is the pluggable scoring seam: deviation (the
	// paper's operator), similarity, outlier, typical, and trend ship
	// built in; RegisterOperator adds custom ones.
	ExplorationOperator = core.ExplorationOperator
	// ScoreContext carries the run-scoped inputs an operator scores
	// with (metric, normalized options).
	ScoreContext = core.ScoreContext
)

// Exploration-operator registry.
var (
	// OperatorNames lists the registered exploration operators, sorted.
	OperatorNames = core.OperatorNames
	// RegisterOperator adds a custom exploration operator; its name
	// becomes valid in Options.Operator and the SQL EXPLORE clause.
	RegisterOperator = core.RegisterOperator
)

// Multi-group-by combining strategies.
const (
	CombineNone         = core.CombineNone
	CombineGroupingSets = core.CombineGroupingSets
	CombineCompositeKey = core.CombineCompositeKey
)

// DefaultOptions returns the demo configuration: all optimizations on,
// EMD metric, top 10 views.
func DefaultOptions() Options { return core.DefaultOptions() }

// BasicOptions returns the unoptimized "basic framework" baseline the
// paper measures optimizations against.
func BasicOptions() Options { return core.BasicOptions() }

// Value constructors.
var (
	// Int boxes an INT value.
	Int = engine.Int
	// Float boxes a FLOAT value.
	Float = engine.Float
	// String boxes a STRING value.
	String = engine.String
	// Time boxes a TIMESTAMP value.
	Time = engine.Time
	// NullValue boxes a NULL of the given type.
	NullValue = engine.NullValue
)

// Predicate constructors for programmatic queries.
var (
	// Eq builds column = value.
	Eq = engine.Eq
	// Compare builds column <op> value.
	Compare = engine.Compare
	// In builds column IN (values...).
	In = engine.In
	// IsNull builds column IS NULL.
	IsNull = engine.IsNull
	// IsNotNull builds column IS NOT NULL.
	IsNotNull = engine.IsNotNull
	// And conjoins predicates.
	And = engine.And
	// Or disjoins predicates.
	Or = engine.Or
	// Not negates a predicate.
	Not = engine.Not
)

// Comparison operators for Compare.
const (
	OpEq = engine.OpEq
	OpNe = engine.OpNe
	OpLt = engine.OpLt
	OpLe = engine.OpLe
	OpGt = engine.OpGt
	OpGe = engine.OpGe
)

// NewTable creates an empty table with the given schema (register it
// with DB.RegisterTable to make it queryable).
func NewTable(name string, schema Schema) (*Table, error) {
	return engine.NewTable(name, schema)
}

// Re-exported service-layer types (see DB.Serve).
type (
	// ServeConfig tunes the service layer (sessions, scheduler,
	// durability, observability).
	ServeConfig = service.Config
	// Service is the concurrent recommendation service: a shared
	// view-result cache plus a session registry.
	Service = service.Manager
	// Session is one analyst's exploration context within a Service.
	Session = service.Session
	// Stream is one running recommendation multiplexed to subscribers
	// (see Session.RecommendStream).
	Stream = service.Stream
	// StreamEvent is one message on a Stream: a progress snapshot or
	// the terminal result/error.
	StreamEvent = service.StreamEvent
	// StreamSubscriber is one consumer's conflated view of a Stream.
	StreamSubscriber = service.Subscriber
	// CacheStats snapshots the view-result cache counters.
	CacheStats = service.CacheStats
	// SchedulerStats snapshots the workload scheduler counters
	// (request coalescing, admission queue, shedding).
	SchedulerStats = service.SchedulerStats
	// ErrOverloaded is returned when admission control sheds a request;
	// the HTTP layer maps it to 503 + Retry-After.
	ErrOverloaded = service.ErrOverloaded
)

// ErrRunPanicked marks a recommendation run that died of a panic (a
// server-side fault; the HTTP layer answers 500, not 400).
var ErrRunPanicked = service.ErrRunPanicked

// ErrNotDurable marks an append that applied in memory but failed to
// reach the write-ahead log (see DB.EnableDurability). The rows are
// queryable but a crash could lose them; callers holding an ack
// contract must retry or surface a server error.
var ErrNotDurable = engine.ErrNotDurable

type (
	// PartialStoreStats snapshots the partial store (incremental
	// execution) counters.
	PartialStoreStats = engine.PartialStoreStats
)

// DB is a SeeDB instance: an embedded analytical database plus the
// recommendation engine on top.
type DB struct {
	cat  *engine.Catalog
	ex   *engine.Executor
	core *core.Engine
	obs  *obs.Hub

	// shards changes what the node holds: its whole tables and the
	// placements it was shipped, kept as segments (see
	// cluster.PlacementStore).
	shards *cluster.PlacementStore

	serveOnce sync.Once
	svc       atomic.Pointer[Service]

	durMu    sync.Mutex
	durStore *wal.Store
	durInfo  *RecoveryInfo
}

// Durability types, re-exported from internal/wal.
type (
	// DurabilityStats is a point-in-time durability report (WAL size,
	// checkpoint cadence, fsync latency EWMA); see DB.DurabilityStats.
	DurabilityStats = wal.Stats
	// RecoveryInfo reports what EnableDurability restored at boot.
	RecoveryInfo = wal.RecoveryInfo
)

// Open creates an empty SeeDB instance.
func Open() *DB {
	cat := engine.NewCatalog()
	ex := engine.NewExecutor(cat)
	c := core.New(ex)
	return &DB{cat: cat, ex: ex, core: c, obs: obs.NewHub(), shards: cluster.NewPlacementStore(ex, c.Collector())}
}

// Placements returns the instance's placement store: its whole tables
// and the placements a coordinator shipped it. The HTTP worker
// endpoints (/api/shard/*) serve from it, and every append grows it.
func (db *DB) Placements() *cluster.PlacementStore { return db.shards }

// Observability returns the instance's metrics registry + trace ring.
// The hub always exists; components feed it only once they are wired
// (Serve, EnableDurability, ShardRemote/PlaceRemote), and the HTTP
// layer exposes it only when the service installed it (see
// ServeConfig.DisableObservability). Everything it observes is
// observation-only: results are byte-identical with the hub exported
// or not.
func (db *DB) Observability() *obs.Hub { return db.obs }

// RegisterTable makes a table queryable under its name.
func (db *DB) RegisterTable(t *Table) error { return db.cat.Register(t) }

// DropTable removes a table (or a placement this node holds); missing
// names are a no-op. With durability enabled its snapshot is removed
// too, so a restart does not resurrect it. On a placed coordinator the
// next rebalance drops the table's placements on the workers.
func (db *DB) DropTable(name string) error { return db.shards.Drop(name) }

// Table returns a registered table.
func (db *DB) Table(name string) (*Table, error) { return db.cat.Table(name) }

// Tables lists registered table names, sorted.
func (db *DB) Tables() []string { return db.cat.TableNames() }

// LoadCSV reads a CSV stream (header row first, types inferred) into a
// new registered table.
func (db *DB) LoadCSV(name string, r io.Reader) (*Table, error) {
	t, err := engine.LoadCSV(name, r, nil)
	if err != nil {
		return nil, err
	}
	if err := db.cat.Register(t); err != nil {
		return nil, err
	}
	return t, nil
}

// Append appends a batch of rows (each in schema order, exactly as
// given) to a registered table under one version bump — the live-table
// ingest path. Results cached against the previous table version become
// unreachable (fingerprint change), but with incremental execution
// enabled (see Serve and EnableIncremental) recomputation reuses each
// plan's stored run of sealed chunks and only scans the appended delta,
// so a query after an append costs O(delta), not O(table). On a cluster
// coordinator the batch is also forwarded to the owners of every
// fragment it touches, so every topology holds the same table. It
// returns the table's new row count.
func (db *DB) Append(name string, rows [][]Value) (int, error) {
	resp, _, err := db.append(context.Background(), name, rows, false)
	if err != nil {
		return 0, err
	}
	return resp.Rows, nil
}

// Ingest is /api/ingest: req's JSON rows parsed once, then DB.Append's
// path; the status is what to answer on error (docs/API.md).
func (db *DB) Ingest(ctx context.Context, req *cluster.IngestRequest) (*cluster.IngestResponse, int, error) {
	rows, status, err := db.shards.Parse(req.Table, req.Rows)
	if err != nil {
		return nil, status, err
	}
	return db.append(ctx, req.Table, rows, req.Verify)
}

// append is the append path's one role dispatch. With EnableDurability
// active the batch is WAL-logged (and fsync'd per the sync policy)
// before it returns, so callers may ack it as durable.
func (db *DB) append(ctx context.Context, name string, rows [][]Value, verify bool) (*cluster.IngestResponse, int, error) {
	if b, ok := db.core.Backend().(*cluster.Backend); ok {
		return b.Append(ctx, name, rows)
	}
	return db.shards.Append(name, rows, verify)
}

// EnableDurability opens (or creates) the durable store rooted at
// dataDir, recovers any previous state — snapshot checkpoints plus the
// WAL tail — into the catalog, and from then on write-ahead-logs every
// batch appended through DB.Append before the call returns. Register
// base tables (demo data, CSV loads) BEFORE calling it: snapshots
// replace same-named tables wholesale and WAL records replay on top.
// Recovered tables resume their mutation-version sequence, so
// fingerprints, content hashes, the chunk grid, and partial-store keys
// are all continuous across the restart — queries over a recovered
// table return bytes identical to a never-restarted run. A worker's
// placement snapshots are adopted by its placement store, which
// rebuilds its segments from them (see Placements).
//
// syncEvery fsyncs the WAL once per N batches (<= 0 means every
// batch); snapshotEvery checkpoints once per N batches (<= 0 selects
// 256). Calling it again is a no-op returning the original recovery
// report.
func (db *DB) EnableDurability(dataDir string, syncEvery, snapshotEvery int) (*RecoveryInfo, error) {
	db.durMu.Lock()
	defer db.durMu.Unlock()
	if db.durStore != nil {
		return db.durInfo, nil
	}
	s, info, err := wal.Open(wal.Options{Dir: dataDir, SyncEvery: syncEvery, SnapshotEvery: snapshotEvery}, db.cat)
	if err != nil {
		return nil, err
	}
	db.cat.SetAppendSink(s)
	s.SetMetrics(db.obs.Metrics)
	if err := db.shards.SetDurable(s); err != nil {
		db.cat.SetAppendSink(nil)
		s.Close()
		return nil, err
	}
	db.durStore = s
	db.durInfo = info
	return info, nil
}

// Durable reports whether EnableDurability is active.
func (db *DB) Durable() bool {
	db.durMu.Lock()
	defer db.durMu.Unlock()
	return db.durStore != nil
}

// DurabilityStats snapshots the durable store's counters; ok is false
// when durability is not enabled.
func (db *DB) DurabilityStats() (st DurabilityStats, ok bool) {
	db.durMu.Lock()
	s := db.durStore
	db.durMu.Unlock()
	if s == nil {
		return DurabilityStats{}, false
	}
	return s.Stats(), true
}

// RecoveryReport returns what EnableDurability restored at boot (nil
// when durability is not enabled).
func (db *DB) RecoveryReport() *RecoveryInfo {
	db.durMu.Lock()
	defer db.durMu.Unlock()
	return db.durInfo
}

// Checkpoint forces an immediate snapshot of every table with batches
// in the current WAL, then compacts the WAL. A no-op without
// durability.
func (db *DB) Checkpoint() error {
	db.durMu.Lock()
	s := db.durStore
	db.durMu.Unlock()
	if s == nil {
		return nil
	}
	return s.Checkpoint()
}

// CloseDurability fsyncs and closes the durable store and detaches it
// from the ingest path. Appends after it return to memory-only.
func (db *DB) CloseDurability() error {
	db.durMu.Lock()
	defer db.durMu.Unlock()
	if db.durStore == nil {
		return nil
	}
	db.cat.SetAppendSink(nil)
	_ = db.shards.SetDurable(nil) // adopts nothing: every snapshot was adopted at open
	err := db.durStore.Close()
	db.durStore = nil
	return err
}

// EnableIncremental installs the engine's partial store (sized by
// maxBytes; <= 0 selects the 256 MiB default) without starting the
// full service layer. Serve does this automatically; this entry point
// exists for embedded and benchmark use.
func (db *DB) EnableIncremental(maxBytes int64) {
	if db.ex.PartialStore() == nil {
		db.ex.SetPartialStore(engine.NewPartialStore(maxBytes))
	}
}

// IncrementalStats snapshots the partial-store counters (zero value
// when incremental execution is not enabled).
func (db *DB) IncrementalStats() PartialStoreStats {
	if st := db.ex.PartialStore(); st != nil {
		return st.Stats()
	}
	return PartialStoreStats{}
}

// SaveTable writes a binary snapshot of a registered table to w
// (columnar layout with a CRC32 checksum; see internal/engine for the
// format). The snapshot carries the table's mutation version, so a
// LoadTable of it resumes the version sequence instead of restarting
// at zero.
func (db *DB) SaveTable(name string, w io.Writer) error {
	t, err := db.cat.Table(name)
	if err != nil {
		return err
	}
	return engine.WriteTableSnapshot(w, t)
}

// LoadTable reads a snapshot written by SaveTable and registers it
// under its stored name.
func (db *DB) LoadTable(r io.Reader) (*Table, error) {
	t, err := engine.ReadTable(r)
	if err != nil {
		return nil, err
	}
	if err := db.cat.Register(t); err != nil {
		return nil, err
	}
	return t, nil
}

// Query executes a SQL statement (the supported subset: single-table
// SELECT with optional aggregation/grouping/ordering/limit) and
// returns its result.
func (db *DB) Query(ctx context.Context, sqlText string) (*QueryResult, error) {
	c, err := sql.ParseAndCompile(sqlText, db.cat)
	if err != nil {
		return nil, err
	}
	return c.Run(ctx, db.ex)
}

// Recommend runs the SeeDB pipeline for the subset of table selected
// by predicate (nil selects everything) and returns the top-k most
// deviating views.
func (db *DB) Recommend(ctx context.Context, table string, predicate Predicate, opts Options) (*Result, error) {
	return db.core.Recommend(ctx, core.Query{Table: table, Predicate: predicate}, opts)
}

// RecommendSQL is Recommend with the analyst query given as SQL, e.g.
// "SELECT * FROM sales WHERE product = 'Laserwave'". The statement
// must be a plain selection (no aggregates or grouping) — it defines
// the data subset, not a view. A trailing EXPLORE clause selects the
// exploration operator for the run, overriding Options.Operator:
//
//	SELECT * FROM sales WHERE region = 'West' EXPLORE trend
//	SELECT * FROM sales WHERE region = 'West'
//	    EXPLORE similarity PROBE sum(profit) BY month
func (db *DB) RecommendSQL(ctx context.Context, sqlText string, opts Options) (*Result, error) {
	table, where, explore, err := sql.AnalystQueryExplore(sqlText, db.cat)
	if err != nil {
		return nil, err
	}
	applyExplore(&opts, explore)
	return db.core.Recommend(ctx, core.Query{Table: table, Predicate: where}, opts)
}

// applyExplore folds a SQL EXPLORE clause onto an option set; the
// clause is part of the query text, so it wins over the options.
func applyExplore(o *Options, e *sql.ExploreClause) {
	if e == nil {
		return
	}
	o.Operator = e.Operator
	o.ProbeFunc = e.ProbeFunc
	o.ProbeMeasure = e.ProbeMeasure
	o.ProbeDimension = e.ProbeDimension
	o.ProbeBinWidth = e.ProbeBinWidth
}

// RecommendProgress is Recommend with a progress seam: listener (when
// non-nil) receives an immutable ranking snapshot after every phase of
// phased execution (Options.Phases > 1) and a final snapshot just
// before the call returns. Observation only — the returned Result is
// byte-identical to a plain Recommend with the same options. For a
// non-blocking, multi-consumer stream use the service layer
// (DB.Serve, then Session.RecommendStream).
func (db *DB) RecommendProgress(ctx context.Context, table string, predicate Predicate, opts Options, listener ProgressListener) (*Result, error) {
	return db.core.RecommendProgress(ctx, core.Query{Table: table, Predicate: predicate}, opts, listener)
}

// RecommendSQLProgress is RecommendProgress with the analyst query
// given as SQL text (including any trailing EXPLORE clause).
func (db *DB) RecommendSQLProgress(ctx context.Context, sqlText string, opts Options, listener ProgressListener) (*Result, error) {
	table, where, explore, err := sql.AnalystQueryExplore(sqlText, db.cat)
	if err != nil {
		return nil, err
	}
	applyExplore(&opts, explore)
	return db.core.RecommendProgress(ctx, core.Query{Table: table, Predicate: where}, opts, listener)
}

// DrillDown refines a previous analyst query by one group of a
// recommended view (paper §1 step 4) and re-runs the recommendation on
// the narrower subset: Q' = Q AND (dimension = label), or the bin
// range for binned dimensions. label must be one of the view's result
// keys ("NULL" selects the NULL group).
func (db *DB) DrillDown(ctx context.Context, table string, predicate Predicate, view View, label string, opts Options) (*Result, error) {
	return db.core.DrillDown(ctx, core.Query{Table: table, Predicate: predicate}, view, label, opts)
}

// TableStats computes (cached) metadata statistics for a table,
// including each column's most frequent values.
func (db *DB) TableStats(name string) (*TableStats, error) {
	t, err := db.cat.Table(name)
	if err != nil {
		return nil, err
	}
	return db.core.Collector().Describe(t), nil
}

// ExecStats exposes cumulative executor counters (queries, scans, rows
// read) — useful for measuring optimization effects.
func (db *DB) ExecStats() (queries, scans, rows int64) {
	return db.ex.Stats().Snapshot()
}

// ResetExecStats zeroes the executor counters.
func (db *DB) ResetExecStats() { db.ex.Stats().Reset() }

// Engine exposes the recommendation engine for advanced integrations
// (the bundled HTTP frontend uses it).
func (db *DB) Engine() *core.Engine { return db.core }

// Serve turns the instance into a shared recommendation service: it
// installs a content-addressed view-result cache (so the comparison
// side of every request, repeated target queries, and concurrent
// identical queries all share scans), starts the workload scheduler
// (concurrent identical session requests coalesce onto one pipeline
// run; MaxConcurrentRuns / MaxQueueDepth bound concurrency and shed
// overload with ErrOverloaded), and returns the session manager.
// Call it before serving traffic; subsequent calls return the same
// Service and ignore cfg. After Serve, direct Recommend /
// RecommendSQL calls on the DB also benefit from the cache (session
// requests additionally go through the scheduler).
func (db *DB) Serve(cfg ServeConfig) *Service {
	db.serveOnce.Do(func() {
		m := service.NewManager(db.core, cfg)
		if !cfg.DisableObservability {
			m.SetObservability(db.obs)
		}
		db.svc.Store(m)
	})
	return db.svc.Load()
}

// Service returns the service layer if Serve has been called, else nil.
func (db *DB) Service() *Service { return db.svc.Load() }

// CacheStats snapshots the view-result cache counters; it returns the
// zero value when Serve has not been called.
func (db *DB) CacheStats() CacheStats {
	if svc := db.svc.Load(); svc != nil {
		return svc.CacheStats()
	}
	return CacheStats{}
}

// Chart builds a renderable chart (bar/line chosen per the frontend
// rules) from a recommended view. With normalized=true it plots the
// probability distributions the utility metric compared; otherwise the
// raw aggregate values.
func Chart(d *ViewData, normalized bool) ChartSpec {
	m := d.View.Measure
	if m == "" {
		m = "*"
	}
	ylabel := fmt.Sprintf("%s(%s)", d.View.Func, m)
	if normalized {
		ylabel = "P[" + ylabel + "]"
	}
	spec := ChartSpec{
		Title:    d.View.String(),
		Subtitle: fmt.Sprintf("utility %.4f", d.Utility),
		XLabel:   d.View.Dimension,
		YLabel:   ylabel,
		Type:     viz.ChooseType(d.Keys),
		Keys:     d.Keys,
	}
	if normalized {
		spec.Series = []viz.Series{
			{Name: "query subset", Values: d.Target},
			{Name: "overall", Values: d.Comparison},
		}
	} else {
		spec.Series = []viz.Series{
			{Name: "query subset", Values: d.TargetRaw},
			{Name: "overall", Values: d.ComparisonRaw},
		}
	}
	return spec
}

// ---------------------------------------------------------------------
// Cluster execution (see internal/cluster)

// Re-exported cluster types. There is one cluster backend and one
// config; the Placement* spellings predate that and are kept as
// aliases for callers written against them.
type (
	// Backend routes the optimizer's engine queries; see core.Backend.
	Backend = core.Backend
	// ClusterConfig tunes a cluster backend (replication, placement
	// size, cooldown, failover).
	ClusterConfig = cluster.Config
	// ClusterBackend is the scatter-gather coordinator backend.
	ClusterBackend = cluster.Backend
	// ShardStatus is one worker's health snapshot.
	ShardStatus = cluster.ShardStatus
	// PlacementConfig is ClusterConfig.
	PlacementConfig = cluster.Config
	// PlacementBackend is ClusterBackend.
	PlacementBackend = cluster.Backend
	// PlacementWorker is what the backend needs from a worker node
	// (shard execution + fragment lifecycle).
	PlacementWorker = cluster.Worker
	// MemberShard is an in-process worker holding only what was
	// shipped to it, in a private catalog.
	MemberShard = cluster.MemberShard
	// RebalanceReport describes one rebalance pass.
	RebalanceReport = cluster.RebalanceReport
)

// NewMemberShard creates an empty in-process placement worker (see
// DB.PlaceMembers).
func NewMemberShard(id string) *MemberShard { return cluster.NewMemberShard(id) }

// SetBackend installs a custom execution backend (nil restores the
// in-process executor). Safe on a live DB; in-flight requests keep the
// backend they started with.
func (db *DB) SetBackend(b Backend) { db.core.SetBackend(b) }

// Backend returns the active execution backend.
func (db *DB) Backend() Backend { return db.core.Backend() }

// useCluster installs b as the execution backend.
func (db *DB) useCluster(b *ClusterBackend) *ClusterBackend {
	b.EnableMetrics(db.obs.Metrics)
	db.core.SetBackend(b)
	return b
}

// ShardRemote switches the instance into cluster-coordinator mode with
// the replicated layout: every view query's row window is cut into one
// range per worker and scattered across the given worker base URLs
// (each a seedb server holding the same tables, e.g.
// "http://worker-1:8080"). The workers are joined as they are —
// nothing is shipped, and a worker whose data differs is detected per
// request, not overwritten. The local replica remains the degraded
// path — if a worker stays unreachable past its retry, its row range
// is executed locally, so queries keep succeeding with reduced
// offload. Until a worker joins, queries run unscattered on this node's
// executor. Additional workers can register later via the
// coordinator's /api/shard/register endpoint or AddWorker on the
// returned backend, both of which ship the joiner whatever it lacks.
func (db *DB) ShardRemote(workers []string, timeout time.Duration, cfg ClusterConfig) *ClusterBackend {
	cfg.Replication = 0
	b := db.useCluster(cluster.New(db.shards, cfg))
	for _, url := range workers {
		b.Join(cluster.NewRemoteShard(url, timeout))
	}
	return b
}

// PlaceRemote switches the instance into cluster-coordinator mode with
// the placed layout: every table is cut into chunk-aligned placements
// assigned to the given worker base URLs via a consistent-hash ring
// with cfg's replication factor (default 2), and each scan range is
// routed to a live owner of that range. The local replica remains
// authoritative (ingest entry point and degraded path); workers hold
// only their owned fragments, so the fleet can serve tables no single
// worker could hold whole. Workers are rebalanced in as they are
// added; more can register later via /api/shard/register or AddWorker
// on the returned backend.
func (db *DB) PlaceRemote(ctx context.Context, workers []string, timeout time.Duration, cfg PlacementConfig) (*PlacementBackend, error) {
	ws := make([]PlacementWorker, len(workers))
	for i, url := range workers {
		ws[i] = cluster.NewRemoteShard(url, timeout)
	}
	return db.place(ctx, ws, cfg)
}

// PlaceMembers is PlaceRemote with n in-process MemberShard workers —
// single-binary data partitioning. Each member holds only the
// fragments the ring assigns it, in its own private catalog, so the
// full ship/verify/rebalance machinery runs (and is testable) without
// a fleet.
func (db *DB) PlaceMembers(ctx context.Context, n int, cfg PlacementConfig) (*PlacementBackend, error) {
	ws := make([]PlacementWorker, n)
	for i := range ws {
		ws[i] = cluster.NewMemberShard(fmt.Sprintf("member-%d", i))
	}
	return db.place(ctx, ws, cfg)
}

func (db *DB) place(ctx context.Context, workers []PlacementWorker, cfg PlacementConfig) (*PlacementBackend, error) {
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	b := db.useCluster(cluster.New(db.shards, cfg))
	var firstErr error
	for _, w := range workers {
		if _, _, err := b.AddWorker(ctx, w); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return b, firstErr
}

// ClusterStatus returns the cluster backend's worker health snapshot,
// or nil when the instance runs the plain in-process backend.
func (db *DB) ClusterStatus() []ShardStatus {
	if b, ok := db.core.Backend().(*cluster.Backend); ok {
		return b.Status()
	}
	return nil
}
