package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"seedb/internal/core"
	"seedb/internal/engine"
	"seedb/internal/obs"
)

// Wrappers over the product's existing seams. They are installed only
// for the traced pass; each records one span per call and forwards.

// tracedBackend wraps a core.Backend (DB.SetBackend). Signature is the
// inner one, so exec-cache keys do not change when it is installed.
type tracedBackend struct {
	inner core.Backend
	tr    *tracer
	layer string // engine for the local backend, cluster for scatter backends
	label string // span name prefix: "engine", "cluster.sharded", "cluster.placed"
	calls atomic.Int64

	mu   sync.Mutex
	plan *capturedPlan // first shared scan seen: input of the direct layer calls
}

// capturedPlan is one engine call exactly as the optimizer lowered it.
type capturedPlan struct {
	q     *engine.Query
	gsets []engine.GroupingSet
}

func (b *tracedBackend) Run(ctx context.Context, q *engine.Query) (*engine.Result, error) {
	b.calls.Add(1)
	name := b.label + ".run"
	if len(q.GroupBy) == 0 && len(q.Aggs) == 1 && q.Aggs[0].Func == engine.AggCount {
		name = b.label + ".count"
	}
	sp, ctx := b.tr.start(ctx, name, b.layer)
	defer sp.end()
	return b.inner.Run(ctx, q)
}

func (b *tracedBackend) RunSharedScan(ctx context.Context, q *engine.Query, gsets []engine.GroupingSet) ([]*engine.Result, error) {
	b.calls.Add(1)
	b.mu.Lock()
	if b.plan == nil {
		b.plan = &capturedPlan{q: q, gsets: gsets}
	}
	b.mu.Unlock()
	sp, ctx := b.tr.start(ctx, b.label+".shared_scan", b.layer)
	defer sp.end()
	return b.inner.RunSharedScan(ctx, q, gsets)
}

func (b *tracedBackend) Signature() string { return b.inner.Signature() }

func (b *tracedBackend) captured() *capturedPlan {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.plan
}

// tracedCache wraps a core.ExecCache (Engine.SetCache). Its span adopts
// the backend span the compute callback opens, so the cache span's self
// time is lookup + store only.
type tracedCache struct {
	inner core.ExecCache
	tr    *tracer
}

func (c *tracedCache) GetOrCompute(ctx context.Context, key string, compute func() ([]*engine.Result, bool, error)) ([]*engine.Result, error) {
	sp, ctx := c.tr.start(ctx, "service.cache", layerService)
	sp.adopt().attr("hit", "true")
	defer sp.end()
	return c.inner.GetOrCompute(ctx, key, func() ([]*engine.Result, bool, error) {
		sp.attr("hit", "false")
		return compute()
	})
}

// spanHeader carries the client-side op span's ID to the server wrapper.
const spanHeader = "X-Bench-Span"

// tracedHandler wraps an http.Handler (the frontend server, or a worker).
// While tr is nil it forwards untouched; only requests to path are
// recorded.
type tracedHandler struct {
	inner http.Handler
	tr    atomic.Pointer[tracer]
	name  string
	layer string
	path  string
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil || r.URL.Path != h.path {
		h.inner.ServeHTTP(w, r)
		return
	}
	var sp *span
	var ctx context.Context
	if id, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64); err == nil {
		sp, ctx = tr.child(r.Context(), id, h.name, h.layer)
	} else {
		sp, ctx = tr.start(r.Context(), h.name, h.layer)
	}
	h.inner.ServeHTTP(w, r.WithContext(ctx))
	// The scheduler runs the pipeline on a context of its own; the run ID
	// it hands back in the response header is what ties the seam spans
	// recorded there to this request.
	tr.bindRun(w.Header().Get(obs.TraceHeader), sp)
	sp.end()
}
