// Package frontend implements SeeDB's thin-client web frontend (paper
// §3.2 and Figure 5): a query builder plus a SQL text box on the left,
// recommended visualizations with utility scores, per-view metadata,
// and an optional "bad views" pane on the right. The frontend talks to
// the backend exclusively through the public seedb API, exactly like
// the paper's thin client talks to the SeeDB backend.
package frontend

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"log"
	"maps"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"time"

	"seedb"
	"seedb/internal/cluster"
	"seedb/internal/distance"
	"seedb/internal/engine"
	"seedb/internal/obs"
	sqlparse "seedb/internal/sql"
)

// QueryTemplate is a pre-defined query the UI offers ("pre-defined
// query templates which encode commonly performed operations", §3.2).
type QueryTemplate struct {
	Name        string `json:"name"`
	SQL         string `json:"sql"`
	Description string `json:"description"`
}

// Server serves the SeeDB UI and JSON API. Every recommendation
// request goes through the service layer (DB.Serve): concurrent
// clients share one view-result cache, and clients that want
// long-lived exploration contexts can create named sessions via
// /api/session and pass the ID in subsequent requests.
type Server struct {
	db        *seedb.DB
	svc       *seedb.Service
	anonymous *seedb.Session // serves requests with no session ID
	templates []QueryTemplate
	logger    *log.Logger
	mux       *http.ServeMux
	// timeout bounds each blocking API request. streamTimeout bounds
	// SSE streaming requests separately — a multi-phase stream is
	// expected to outlive a blocking request's budget, and wrapping it
	// in the same deadline used to kill legitimate high-`phases` runs.
	timeout       time.Duration
	streamTimeout time.Duration

	// hub is the DB's observability hub when the service layer installed
	// it, nil with ServeConfig.DisableObservability set — then /metrics
	// and /api/trace answer 404 and the HTTP middleware is skipped.
	hub          *obs.Hub
	httpRequests *obs.CounterVec
	httpLatency  *obs.HistogramVec
}

// New builds a frontend server over a SeeDB instance, enabling its
// service layer (shared view-result cache + sessions) with default
// limits. DB.Serve latches its configuration on first call, so to
// customize cache or session limits either call db.Serve(cfg) BEFORE
// New, or use NewWithConfig.
func New(db *seedb.DB, templates []QueryTemplate, logger *log.Logger) *Server {
	return NewWithConfig(db, seedb.ServeConfig{}, templates, logger)
}

// NewWithConfig is New with explicit service-layer limits. cfg is
// ignored if the DB's service layer was already started (DB.Serve is
// one-shot).
func NewWithConfig(db *seedb.DB, cfg seedb.ServeConfig, templates []QueryTemplate, logger *log.Logger) *Server {
	if logger == nil {
		logger = log.Default()
	}
	svc := db.Serve(cfg)
	s := &Server{
		db:  db,
		svc: svc,
		// The shared pinned anonymous session backs every session-less
		// request; client churn cannot evict it, and servers over the
		// same DB reuse one instead of each registering their own.
		anonymous:     svc.AnonymousSession(),
		templates:     templates,
		logger:        logger,
		timeout:       60 * time.Second,
		streamTimeout: 10 * time.Minute,
	}
	mux := http.NewServeMux()
	for path, h := range routes {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) { h(s, w, r) })
	}
	s.mux = mux
	s.installObs(svc.Observability())
	return s
}

// routes is every path the server answers, and the closed set of
// route label values for the HTTP metrics.
var routes = map[string]func(*Server, http.ResponseWriter, *http.Request){
	"/":                     (*Server).handleIndex,
	"/api/meta":             (*Server).handleMeta,
	"/api/recommend":        (*Server).handleRecommend,
	"/api/recommend/stream": (*Server).handleRecommendStream,
	"/api/drilldown":        (*Server).handleDrillDown,
	"/api/sql":              (*Server).handleSQL,
	"/api/session":          (*Server).handleSession,
	"/api/stats":            (*Server).handleStats,
	"/api/ingest":           (*Server).handleIngest,
	// Observability: Prometheus exposition + per-run trace dumps. Both
	// answer 404 when the service was started with observability
	// disabled (the routes stay mounted so the behavior is a status,
	// not a routing difference).
	"/metrics":   (*Server).handleMetrics,
	"/api/trace": (*Server).handleTrace,
	// Cluster protocol, worker side: every server can hold fragments
	// and run shard requests over them.
	"/api/shard/exec":   (*Server).handleShardExec,
	"/api/shard/health": (*Server).handleShardHealth,
	"/api/shard/sync":   (*Server).handleShardSync,
	"/api/shard/drop":   (*Server).handleShardDrop,
	// Coordinator side (a server whose DB runs a cluster backend):
	// worker registration, the fragment map, an operator-triggered
	// rebalance pass.
	"/api/shard/register":  (*Server).handleShardRegister,
	"/api/shard/map":       (*Server).handleShardMap,
	"/api/shard/rebalance": (*Server).handleShardRebalance,
}

// Routes lists every registered path, sorted (the docs lint checks
// them against the documentation).
func Routes() []string {
	return slices.Sorted(maps.Keys(routes))
}

// SetTimeouts overrides the per-request deadlines: request bounds
// blocking API calls, stream bounds SSE streaming calls. Zero values
// keep the current setting (60s and 10m by default).
func (s *Server) SetTimeouts(request, stream time.Duration) {
	if request > 0 {
		s.timeout = request
	}
	if stream > 0 {
		s.streamTimeout = stream
	}
}

// session resolves the request's session ID to a live session; the
// empty ID maps to the shared anonymous session.
func (s *Server) session(id string) (*seedb.Session, error) {
	if id == "" {
		return s.anonymous, nil
	}
	return s.svc.Session(id)
}

// ServeHTTP implements http.Handler. With the obs hub installed every
// request is counted and timed (see observe); without it dispatch goes
// straight to the mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.httpRequests == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	s.observe(w, r)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logger.Printf("frontend: encoding response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeRecommendError maps a recommendation failure onto an HTTP
// status: an admission-control shed answers 503 Service Unavailable
// with a Retry-After header (the scheduler's capacity estimate, in
// whole seconds), a panicked run is the server's fault (500), and
// everything else stays a 400 like before.
func (s *Server) writeRecommendError(w http.ResponseWriter, err error) {
	var ov *seedb.ErrOverloaded
	if errors.As(err, &ov) {
		secs := int(ov.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": ov.Error()})
		return
	}
	if errors.Is(err, seedb.ErrRunPanicked) {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeError(w, http.StatusBadRequest, err)
}

// ---------------------------------------------------------------------
// /api/meta

type columnMeta struct {
	Name      string   `json:"name"`
	Type      string   `json:"type"`
	Distinct  int      `json:"distinct"`
	Nulls     int      `json:"nulls"`
	TopValues []string `json:"topValues,omitempty"`
}

type tableMeta struct {
	Name    string       `json:"name"`
	Rows    int          `json:"rows"`
	Columns []columnMeta `json:"columns"`
}

type metaResponse struct {
	Tables    []tableMeta     `json:"tables"`
	Metrics   []string        `json:"metrics"`
	Operators []string        `json:"operators"`
	Templates []QueryTemplate `json:"templates"`
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	resp := metaResponse{Metrics: distance.Names(), Operators: seedb.OperatorNames(), Templates: s.templates}
	if resp.Templates == nil {
		resp.Templates = []QueryTemplate{}
	}
	for _, name := range s.db.Tables() {
		t, err := s.db.Table(name)
		if err != nil {
			continue
		}
		ts, err := s.db.TableStats(name)
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
		tm := tableMeta{Name: name, Rows: t.NumRows()}
		for _, def := range t.Schema() {
			cs, err := ts.Column(def.Name)
			if err != nil {
				continue
			}
			cm := columnMeta{
				Name:     def.Name,
				Type:     def.Type.String(),
				Distinct: cs.Distinct,
				Nulls:    cs.Nulls,
			}
			for _, tv := range cs.TopValues {
				cm.TopValues = append(cm.TopValues, tv.Value)
			}
			tm.Columns = append(tm.Columns, cm)
		}
		resp.Tables = append(resp.Tables, tm)
	}
	sort.Slice(resp.Tables, func(i, j int) bool { return resp.Tables[i].Name < resp.Tables[j].Name })
	s.writeJSON(w, http.StatusOK, resp)
}

// ---------------------------------------------------------------------
// /api/recommend

type recommendRequest struct {
	SQL string `json:"sql"`
	// Session names a session created via /api/session; empty uses the
	// shared anonymous session.
	Session    string `json:"session,omitempty"`
	Metric     string `json:"metric"`
	K          int    `json:"k"`
	Normalized bool   `json:"normalized"`

	// Operator selects the exploration operator scoring the view space
	// ("deviation", "similarity", "outlier", "typical", "trend"); empty
	// keeps the session default (deviation). The similarity operator
	// additionally needs a probe view: probeDimension (required), plus
	// optional probeFunc/probeMeasure (count(*) when absent) and
	// probeBin (bin width for continuous probe dimensions). A trailing
	// EXPLORE clause in the SQL text overrides all of these.
	Operator       string  `json:"operator,omitempty"`
	ProbeDimension string  `json:"probeDimension,omitempty"`
	ProbeMeasure   string  `json:"probeMeasure,omitempty"`
	ProbeFunc      string  `json:"probeFunc,omitempty"`
	ProbeBin       float64 `json:"probeBin,omitempty"`

	// Tri-state toggles: absent keeps the session default, true/false
	// overrides it either way.
	ShowWorst *bool `json:"showWorst"`

	// Optimization toggles (demo Scenario 2: "select the optimizations
	// that SEEDB applies and observe the effect").
	DisablePruning   *bool `json:"disablePruning"`
	DisableCombining *bool `json:"disableCombining"`
	// SampleFraction is tri-state like the booleans: absent keeps the
	// session default; a value in (0,1) enables sampling at that
	// fraction; any other value (e.g. 0) disables sampling.
	SampleFraction *float64 `json:"sampleFraction"`
	// Phases enables phased execution with confidence-interval pruning:
	// absent keeps the session default, 0 restores single-pass
	// execution, N>1 processes the table in N phases. The streaming
	// endpoint emits one ranking snapshot per phase; the blocking
	// endpoint accepts the same knob so both run the identical
	// computation (the stream's done payload is byte-identical to the
	// blocking response).
	Phases *int `json:"phases"`
}

type viewJSON struct {
	Rank          int      `json:"rank"`
	Title         string   `json:"title"`
	Dimension     string   `json:"dimension"`
	Measure       string   `json:"measure"`
	Func          string   `json:"func"`
	BinWidth      float64  `json:"binWidth,omitempty"`
	Utility       float64  `json:"utility"`
	ChartType     string   `json:"chartType"`
	Keys          []string `json:"keys"`
	SVG           string   `json:"svg"`
	TargetSQL     string   `json:"targetSql"`
	ComparisonSQL string   `json:"comparisonSql"`
	MaxDeltaKey   string   `json:"maxDeltaKey"`
	MaxDelta      float64  `json:"maxDelta"`
	Groups        int      `json:"groups"`
	Represents    []string `json:"represents,omitempty"`
}

type recommendResponse struct {
	Query          string     `json:"query"`
	Metric         string     `json:"metric"`
	Operator       string     `json:"operator"`
	TargetRowCount int64      `json:"targetRowCount"`
	ElapsedMillis  float64    `json:"elapsedMillis"`
	CandidateViews int        `json:"candidateViews"`
	ExecutedViews  int        `json:"executedViews"`
	QueriesIssued  int64      `json:"queriesIssued"`
	Sampled        bool       `json:"sampled"`
	PlanSummary    string     `json:"planSummary,omitempty"`
	Views          []viewJSON `json:"views"`
	WorstViews     []viewJSON `json:"worstViews,omitempty"`
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req recommendRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("frontend: parsing request: %w", err))
		return
	}
	if req.SQL == "" {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("frontend: missing sql"))
		return
	}
	sess, err := s.session(req.Session)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	opts := s.optionsFrom(req, sess.Options())
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	// The scheduler fills the capture cell with the run's trace ID —
	// also for requests that coalesced onto an existing run — and it
	// surfaces as a response header, never in the body: the JSON below
	// stays byte-identical with observability on or off.
	ctx, capt := obs.WithIDCapture(ctx)
	res, err := sess.RecommendSQL(ctx, req.SQL, &opts)
	if id := capt.Get(); id != "" {
		w.Header().Set(obs.TraceHeader, id)
	}
	if err != nil {
		s.writeRecommendError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, s.recommendResponseFrom(res, req.Normalized))
}

// optionsFrom maps the request toggles onto engine options, starting
// from base — the session's defaults — so a session configured via
// /api/session keeps its settings unless a request overrides them.
// Boolean toggles are tri-state (*bool): absent keeps the session
// default, and an explicit false can switch a session-level toggle
// back off; "enable" restores the stock defaults for the affected
// knobs.
func (s *Server) optionsFrom(req recommendRequest, base seedb.Options) seedb.Options {
	opts := base
	def := seedb.DefaultOptions()
	if req.Metric != "" {
		opts.Metric = req.Metric
	}
	if req.K > 0 {
		opts.K = req.K
	}
	if req.Operator != "" {
		opts.Operator = req.Operator
	}
	if req.ProbeDimension != "" {
		opts.ProbeDimension = req.ProbeDimension
		opts.ProbeMeasure = req.ProbeMeasure
		opts.ProbeFunc = req.ProbeFunc
		opts.ProbeBinWidth = req.ProbeBin
	}
	if req.ShowWorst != nil {
		if *req.ShowWorst {
			opts.IncludeWorst = 3
		} else {
			opts.IncludeWorst = 0
		}
	}
	if req.DisablePruning != nil {
		if *req.DisablePruning {
			opts.PruneLowVariance = false
			opts.PruneCorrelated = false
		} else {
			opts.PruneLowVariance = def.PruneLowVariance
			opts.PruneCorrelated = def.PruneCorrelated
		}
	}
	if req.DisableCombining != nil {
		if *req.DisableCombining {
			opts.CombineTargetComparison = false
			opts.CombineAggregates = false
			opts.CombineGroupBys = seedb.CombineNone
		} else {
			opts.CombineTargetComparison = def.CombineTargetComparison
			opts.CombineAggregates = def.CombineAggregates
			opts.CombineGroupBys = def.CombineGroupBys
		}
	}
	if req.SampleFraction != nil {
		if f := *req.SampleFraction; f > 0 && f < 1 {
			opts.SampleFraction = f
			opts.SampleMinRows = 0
		} else {
			opts.SampleFraction = 0 // exact answers for this request
			opts.SampleMinRows = def.SampleMinRows
		}
	}
	if req.Phases != nil && *req.Phases >= 0 {
		opts.Phases = *req.Phases
	}
	return opts
}

// recommendResponseFrom converts a core result into the wire shape.
func (s *Server) recommendResponseFrom(res *seedb.Result, normalized bool) recommendResponse {
	resp := recommendResponse{
		Query:          res.Query.String(),
		Metric:         res.Metric,
		Operator:       res.Operator,
		TargetRowCount: res.TargetRowCount,
		ElapsedMillis:  res.Stats.ElapsedMillis,
		CandidateViews: res.Stats.CandidateViews,
		ExecutedViews:  res.Stats.ExecutedViews,
		QueriesIssued:  res.Stats.QueriesIssued,
		Sampled:        res.Stats.Sampled,
		PlanSummary:    res.Stats.PlanSummary,
	}
	for _, rec := range res.Recommendations {
		resp.Views = append(resp.Views, toViewJSON(rec, normalized))
	}
	for _, rec := range res.WorstViews {
		resp.WorstViews = append(resp.WorstViews, toViewJSON(rec, normalized))
	}
	return resp
}

// parseAnalystQuery resolves a plain SELECT into (table, predicate)
// through the same compile path as /api/recommend, so both front
// doors share column validation and timestamp-literal coercion.
func (s *Server) parseAnalystQuery(sqlText string) (string, seedb.Predicate, error) {
	return sqlparse.AnalystQuery(sqlText, s.db.Engine().Executor().Catalog())
}

func engineAggFunc(name string) (seedb.AggFunc, error) {
	if name == "" {
		return seedb.AggSum, nil
	}
	return engine.ParseAggFunc(name)
}

func toViewJSON(rec seedb.Recommendation, normalized bool) viewJSON {
	d := rec.Data
	maxKey, maxDelta := d.MaxDeltaKey()
	return viewJSON{
		Rank:          rec.Rank,
		Title:         d.View.String(),
		Dimension:     d.View.Dimension,
		Measure:       d.View.Measure,
		Func:          d.View.Func.String(),
		BinWidth:      d.View.BinWidth,
		Utility:       d.Utility,
		ChartType:     rec.ChartType,
		Keys:          d.Keys,
		SVG:           seedb.Chart(d, normalized).SVG(430, 300),
		TargetSQL:     rec.TargetSQL,
		ComparisonSQL: rec.ComparisonSQL,
		MaxDeltaKey:   maxKey,
		MaxDelta:      maxDelta,
		Groups:        len(d.Keys),
		Represents:    rec.Represents,
	}
}

// ---------------------------------------------------------------------
// /api/drilldown

// drillRequest refines a previous recommendation by one group of one
// of its views (paper §1 step 4) and re-recommends.
type drillRequest struct {
	recommendRequest
	Dimension string  `json:"dimension"`
	Measure   string  `json:"measure"`
	Func      string  `json:"func"`
	BinWidth  float64 `json:"binWidth"`
	Label     string  `json:"label"`
}

func (s *Server) handleDrillDown(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req drillRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("frontend: parsing request: %w", err))
		return
	}
	if req.SQL == "" || req.Dimension == "" || req.Label == "" {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("frontend: drilldown needs sql, dimension, and label"))
		return
	}
	fn, err := engineAggFunc(req.Func)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	view := seedb.View{Dimension: req.Dimension, Measure: req.Measure, Func: fn, BinWidth: req.BinWidth}
	sess, err := s.session(req.Session)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	opts := s.optionsFrom(req.recommendRequest, sess.Options())

	// Resolve the analyst query via the same SQL front door.
	table, predicate, err := s.parseAnalystQuery(req.SQL)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	ctx, capt := obs.WithIDCapture(ctx)
	res, err := sess.DrillDown(ctx, seedb.Query{Table: table, Predicate: predicate}, view, req.Label, &opts)
	if id := capt.Get(); id != "" {
		w.Header().Set(obs.TraceHeader, id)
	}
	if err != nil {
		s.writeRecommendError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, s.recommendResponseFrom(res, req.Normalized))
}

// ---------------------------------------------------------------------
// /api/sql

type sqlRequest struct {
	SQL string `json:"sql"`
}

type sqlResponse struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Partial bool       `json:"partial"`
}

// maxPreviewRows caps the rows returned by the raw-SQL endpoint.
const maxPreviewRows = 200

func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req sqlRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("frontend: parsing request: %w", err))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	res, err := s.db.Query(ctx, req.SQL)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := sqlResponse{Columns: res.Columns, Rows: [][]string{}}
	for i, row := range res.Rows {
		if i >= maxPreviewRows {
			resp.Partial = true
			break
		}
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.Format()
		}
		resp.Rows = append(resp.Rows, cells)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ---------------------------------------------------------------------
// /api/session and /api/stats (service layer)

type sessionResponse struct {
	ID string `json:"id"`
}

// handleSession creates (POST) or closes (DELETE, ?id=...) a service
// session. Sessions let a client pin default options and give the
// operator per-client request accounting; all sessions share the
// view-result cache. The POST body optionally carries the same option
// toggles as /api/recommend (sql is ignored) and becomes the
// session's defaults. Session IDs are random capabilities: knowing an
// ID is what authorizes using or closing that session, and they are
// never listed back out.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		opts := seedb.DefaultOptions()
		if r.ContentLength != 0 {
			var req recommendRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				s.writeError(w, http.StatusBadRequest, fmt.Errorf("frontend: parsing session options: %w", err))
				return
			}
			opts = s.optionsFrom(req, opts)
		}
		sess := s.svc.NewSession(opts)
		s.writeJSON(w, http.StatusOK, sessionResponse{ID: sess.ID()})
	case http.MethodDelete:
		id := r.URL.Query().Get("id")
		if id == s.anonymous.ID() {
			// The shared anonymous session backs every session-less
			// request; closing it would break other clients.
			s.writeError(w, http.StatusForbidden, fmt.Errorf("frontend: the anonymous session cannot be closed"))
			return
		}
		if id == "" || !s.svc.CloseSession(id) {
			s.writeError(w, http.StatusNotFound, fmt.Errorf("frontend: no session %q", id))
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]bool{"closed": true})
	default:
		http.Error(w, "POST or DELETE only", http.StatusMethodNotAllowed)
	}
}

// clusterStats is the /api/stats section of a cluster coordinator:
// layout signature, cumulative counters (scatter, failover, ingest,
// rebalance movement, ownership shape), and per-worker health with
// fragment counts.
type clusterStats struct {
	Signature string                `json:"signature"`
	Counters  cluster.Stats         `json:"counters"`
	Workers   []cluster.ShardStatus `json:"workers"`
}

// incrementalStats surfaces the partial store's delta-reuse
// effectiveness: how much aggregation work queries over live tables
// served from stored runs of sealed chunks instead of re-scanning.
type incrementalStats struct {
	Store seedb.PartialStoreStats `json:"store"`
	// ReuseRatio = rowsReused / (rowsReused + rowsScanned).
	ReuseRatio float64 `json:"reuseRatio"`
}

type statsResponse struct {
	Cache seedb.CacheStats `json:"cache"`
	// Scheduler reports the workload scheduler: request coalescing,
	// admission-queue occupancy, and shed counts.
	Scheduler seedb.SchedulerStats `json:"scheduler"`
	// Sessions is a count, not an ID list: IDs are capabilities.
	Sessions int `json:"sessions"`
	// Incremental reports partial-store reuse when the store is
	// enabled (it is by default under Serve).
	Incremental *incrementalStats `json:"incremental,omitempty"`
	// Cluster reports the fleet when a cluster backend is active.
	Cluster *clusterStats `json:"cluster,omitempty"`
	// Durability reports the WAL'd store (log size, checkpoint times,
	// fsync latency) when the server runs with a data dir.
	Durability *durabilityStats `json:"durability,omitempty"`
	// Observability reports the obs hub's totals when it is installed:
	// the full breakdown lives at /metrics, this is the footer summary.
	Observability *obsStats `json:"observability,omitempty"`
}

// obsStats is the /api/stats summary of the observability hub.
type obsStats struct {
	// HTTPRequests is the total requests the middleware observed.
	HTTPRequests int64 `json:"httpRequests"`
	// Traces is the number of completed run traces retained in the
	// ring (each dumpable via /api/trace?id=...).
	Traces int `json:"traces"`
}

// durabilityStats couples the store's live counters with the one-shot
// recovery report from boot, so operators can confirm what a restart
// actually restored.
type durabilityStats struct {
	seedb.DurabilityStats
	Recovery *seedb.RecoveryInfo `json:"recovery,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	// Stats are a live snapshot; a cached copy is misinformation.
	w.Header().Set("Cache-Control", "no-store")
	resp := statsResponse{
		Cache:     s.svc.CacheStats(),
		Scheduler: s.svc.SchedulerStats(),
		Sessions:  s.svc.SessionCount(),
	}
	if s.db.Engine().Executor().PartialStore() != nil {
		st := s.db.IncrementalStats()
		resp.Incremental = &incrementalStats{Store: st, ReuseRatio: st.ReuseRatio()}
	}
	if b := s.clusterBackend(); b != nil {
		resp.Cluster = &clusterStats{Signature: b.Signature(), Counters: b.Counters(), Workers: b.Status()}
	}
	if st, ok := s.db.DurabilityStats(); ok {
		resp.Durability = &durabilityStats{DurabilityStats: st, Recovery: s.db.RecoveryReport()}
	}
	if s.hub != nil {
		resp.Observability = &obsStats{
			HTTPRequests: int64(s.httpRequests.Total()),
			Traces:       s.hub.Traces.Len(),
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ---------------------------------------------------------------------
// /api/ingest: the live-table append path

// handleIngest applies a batched append through DB.Ingest, the path
// every role shares; on a cluster coordinator it is also forwarded to
// the owners of every fragment it touches, each post-append
// ContentHash re-verified. With a data dir the 200 means the batch is
// in the write-ahead log, and a logging failure answers 500, never
// 400. A bad batch is rejected atomically.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req cluster.IngestRequest
	if !s.decodeWire(w, r, "ingest request", &req) {
		return
	}
	if req.Table == "" || len(req.Rows) == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("frontend: ingest needs a table and at least one row"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	resp, status, err := s.db.Ingest(ctx, &req)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ---------------------------------------------------------------------
// Cluster endpoints: worker side (/api/shard/exec, /api/shard/health)
// and coordinator side (/api/shard/register)

// clusterBackend returns the DB's cluster backend, or nil when the
// plain in-process backend is active.
func (s *Server) clusterBackend() *cluster.Backend {
	b, _ := s.db.Backend().(*cluster.Backend)
	return b
}

// decodeWire decodes a cluster-protocol body (cluster.ReadWire), bounded
// by cluster.MaxWireBytes: a malformed body answers 400, an oversized
// one 413, and false is returned.
func (s *Server) decodeWire(w http.ResponseWriter, r *http.Request, what string, into any) bool {
	err := cluster.ReadWire(http.MaxBytesReader(w, r.Body, cluster.MaxWireBytes), into)
	if err == nil {
		return true
	}
	s.writeError(w, cluster.BodyStatus(err), fmt.Errorf("frontend: parsing %s: %w", what, err))
	return false
}

// handleShardExec is the worker half of scatter-gather: it runs one
// exchange — every fragment (whole replica or placement) a coordinator
// wants scanned on this node for one query — through the placement
// store, one scan per row-adjacent run of fragments in one segment,
// and returns the partition-mergeable runs. A fragment this node lacks
// or holds differently is reported inside the 200 (with this copy's
// hash), so the coordinator can tell data drift from transient failure.
func (s *Server) handleShardExec(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req cluster.ShardRequest
	if !s.decodeWire(w, r, "shard request", &req) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	// Trace join: a coordinator propagates its run's trace ID in the
	// request header; this worker records its half of the work under
	// the same ID in its own ring, so an operator can correlate
	// coordinator and worker dumps of one sharded run.
	if id := r.Header.Get(obs.TraceHeader); id != "" && s.hub != nil {
		tr := s.hub.Traces.New(id)
		span := tr.StartSpan("worker-exec").SetAttr("fragments", strconv.Itoa(len(req.Fragments)))
		if n := len(req.Fragments); n > 0 {
			lo, _ := req.Fragments[0].Span()
			_, hi := req.Fragments[n-1].Span()
			span.SetAttr("table", req.Fragments[0].Table).SetAttr("rows", fmt.Sprintf("%d:%d", lo, hi))
		}
		ctx = obs.ContextWithTrace(ctx, tr)
		defer func() {
			span.Finish()
			s.hub.Traces.Finish(tr)
		}()
		w.Header().Set(obs.TraceHeader, id)
	}
	resp, status, err := s.db.Placements().Exec(ctx, &req)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	frame, _ := resp.MarshalBinary() // encoding a frame cannot fail
	w.Header().Set("Content-Type", cluster.FrameContentType)
	if _, err := w.Write(frame); err != nil {
		s.logger.Printf("frontend: writing shard response: %v", err)
	}
}

// handleShardHealth reports liveness plus what the node holds — every
// placement by placement name and every whole table, each with its row
// count and content hash — so coordinators and operators can verify
// data agreement before routing work here. Segment tables are not
// listed: they are how the placements are stored, not what is held.
func (s *Server) handleShardHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	tables, err := s.db.Placements().Inventory()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"ok": true, "tables": tables})
}

type shardRegisterRequest struct {
	// URL is the worker's advertised base URL, e.g. "http://worker-2:8080".
	URL string `json:"url"`
}

// handleShardRegister adds a worker to a coordinator's fleet after
// probing its health, and brings it in line before it serves traffic:
// AddWorker takes the worker's inventory and ships — from the
// coordinator's live replica, ingest held, every hash verified —
// whatever the layout assigns it and it lacks (whole tables under the
// replicated layout, its ring share under the placed one). An empty or
// stale node can join and catch up; an in-step one costs nothing.
// Registering twice is safe, so workers can re-announce on every
// restart.
func (s *Server) handleShardRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	b := s.clusterBackend()
	if b == nil {
		s.writeError(w, http.StatusBadRequest, errNotCoordinator)
		return
	}
	var req shardRegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.URL == "" {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("frontend: shard registration needs a url"))
		return
	}
	shard := cluster.NewRemoteShard(req.URL, 0)
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	if err := shard.Health(ctx); err != nil {
		s.writeError(w, http.StatusBadGateway, fmt.Errorf("frontend: worker %s failed its health probe: %w", req.URL, err))
		return
	}
	// The sync budget is larger than the health probe's: it moves
	// whole fragments.
	syncCtx, cancelSync := context.WithTimeout(r.Context(), 2*time.Minute)
	defer cancelSync()
	rep, added, err := b.AddWorker(syncCtx, shard)
	if err != nil {
		s.writeError(w, http.StatusBadGateway, fmt.Errorf("frontend: worker %s failed rebalance: %w", req.URL, err))
		return
	}
	s.logger.Printf("frontend: worker %s %s (epoch %d, shipped %d fragments / %d bytes)",
		req.URL, map[bool]string{true: "registered", false: "re-announced"}[added], rep.Epoch, rep.Shipped, rep.BytesMoved)
	s.writeJSON(w, http.StatusOK, map[string]any{"added": added, "workers": b.NumWorkers(), "rebalance": rep})
}

var errNotCoordinator = errors.New("frontend: this node is not a cluster coordinator")

// handleShardSync is the worker half of fragment shipping: it hands a
// coordinator's serialized snapshot (bounded by MaxSnapshotBytes) to
// the placement store, which installs it as this node's copy — with lo
// (the placement's first absolute row) a placement, without a whole
// table — and answers with the post-replacement content hash for the
// coordinator's handshake.
func (s *Server) handleShardSync(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	name := r.URL.Query().Get("table")
	if name == "" {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("frontend: sync needs a table query parameter"))
		return
	}
	lo := -1
	if v := r.URL.Query().Get("lo"); v != "" {
		var err error
		if lo, err = strconv.Atoi(v); err != nil || lo < 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("frontend: sync lo %q is not a row number", v))
			return
		}
	}
	resp, status, err := s.db.Placements().Sync(name, lo, http.MaxBytesReader(w, r.Body, cluster.MaxSnapshotBytes))
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleShardDrop is the worker half of rebalancing's shrink side: a
// coordinator asks this node to remove a fragment it no longer owns
// (see PlacementStore.Drop). Dropping an unknown name succeeds — drops
// are re-issued until the map converges.
func (s *Server) handleShardDrop(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	name := r.URL.Query().Get("table")
	if name == "" {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("frontend: drop needs a table query parameter"))
		return
	}
	if err := s.db.Placements().Drop(name); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.logger.Printf("frontend: dropped %q (coordinator request)", name)
	s.writeJSON(w, http.StatusOK, map[string]any{"dropped": name})
}

// handleShardMap dumps the fragment map: every table's fragments with
// expected content hashes, assigned owners, and whether each owner
// verifiably holds its fragment.
func (s *Server) handleShardMap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	b := s.clusterBackend()
	if b == nil {
		s.writeError(w, http.StatusBadRequest, errNotCoordinator)
		return
	}
	w.Header().Set("Cache-Control", "no-store")
	dump, err := b.Dump()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, dump)
}

// handleShardRebalance runs one reconcile pass: ship
// owned-but-missing fragments, drop no-longer-owned ones. Operators
// (and the placement smoke test) call it after membership churn to
// force convergence instead of waiting for the next join.
func (s *Server) handleShardRebalance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	b := s.clusterBackend()
	if b == nil {
		s.writeError(w, http.StatusBadRequest, errNotCoordinator)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Minute)
	defer cancel()
	rep, err := b.Rebalance(ctx)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.logger.Printf("frontend: rebalance pass: shipped %d, dropped %d, %d bytes moved", rep.Shipped, rep.Dropped, rep.BytesMoved)
	s.writeJSON(w, http.StatusOK, rep)
}

// ---------------------------------------------------------------------
// index page

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := indexTemplate.Execute(w, nil); err != nil {
		s.logger.Printf("frontend: rendering index: %v", err)
	}
}

var indexTemplate = template.Must(template.New("index").Parse(indexHTML))
