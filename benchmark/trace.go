package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"seedb/internal/obs"
)

// The harness records spans from the outside only: around its own calls
// into each layer and inside the seam wrappers of seams.go. Spans exist
// only during the traced pass (a nil *tracer makes every call a no-op),
// are kept in memory, and are written once at exit.

const (
	layerHarness  = "harness" // the benchmark's own time inside an op: the uncovered share
	layerCore     = "core"
	layerEngine   = "engine"
	layerService  = "service"
	layerFrontend = "frontend"
	layerCluster  = "cluster"
	layerWAL      = "wal"
)

type span struct {
	Trace   string            `json:"trace"`
	ID      int64             `json:"id"`
	Parent  int64             `json:"parent"`
	Name    string            `json:"name"`
	Layer   string            `json:"layer"`
	StartNS int64             `json:"start_ns"`
	EndNS   int64             `json:"end_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`

	tr *tracer
	// scope groups the spans of one request when the request context does
	// not reach a seam: the product's own run ID (the scheduler detaches
	// the run context from the caller's) or the op's trace name.
	scope string
	// adopts lets spans of the same scope that start while this one is
	// open become its children even though their context predates it (the
	// exec cache's compute callback closes over the caller's context).
	adopts bool
	open   bool
}

type tracer struct {
	mu        sync.Mutex
	epoch     time.Time
	spans     []*span
	open      []*span
	runParent map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), runParent: map[string]int64{}}
}

type spanCtxKey struct{}

func spanFrom(ctx context.Context) *span {
	s, _ := ctx.Value(spanCtxKey{}).(*span)
	return s
}

// root opens the span of one operation; trace names it ("cold_scan/17").
func (t *tracer) root(ctx context.Context, trace, name string) (*span, context.Context) {
	if t == nil {
		return nil, ctx
	}
	s := &span{Trace: trace, Name: name, Layer: layerHarness, scope: trace}
	t.push(s)
	return s, context.WithValue(ctx, spanCtxKey{}, s)
}

// start opens a span below whatever caused it: the span in ctx, else the
// request the product's run ID is bound to (resolved in finish), else —
// single-client workloads only — the innermost span still open.
func (t *tracer) start(ctx context.Context, name, layer string) (*span, context.Context) {
	if t == nil {
		return nil, ctx
	}
	s := &span{Name: name, Layer: layer}
	t.mu.Lock()
	if p := spanFrom(ctx); p != nil {
		s.Parent, s.Trace, s.scope = p.ID, p.Trace, p.scope
	} else if run := obs.TraceFrom(ctx); run != nil {
		s.scope = "run:" + run.ID()
	} else {
		// Spans of one layer run side by side (two workers serving one
		// scatter), so the innermost open span of another layer it is.
		for i := len(t.open) - 1; i >= 0; i-- {
			if p := t.open[i]; p.Layer != layer {
				s.Parent, s.Trace, s.scope = p.ID, p.Trace, p.scope
				break
			}
		}
	}
	for i := len(t.open) - 1; i >= 0; i-- {
		if p := t.open[i]; p.adopts && p.scope == s.scope {
			s.Parent, s.Trace = p.ID, p.Trace
			break
		}
	}
	t.mu.Unlock()
	t.push(s)
	return s, context.WithValue(ctx, spanCtxKey{}, s)
}

// child opens a span below a parent known only by ID (it crossed HTTP in
// a request header).
func (t *tracer) child(ctx context.Context, parent int64, name, layer string) (*span, context.Context) {
	if t == nil {
		return nil, ctx
	}
	s := &span{Parent: parent, Name: name, Layer: layer}
	t.mu.Lock()
	for _, p := range t.open {
		if p.ID == parent {
			s.Trace, s.scope = p.Trace, p.scope
		}
	}
	t.mu.Unlock()
	t.push(s)
	return s, context.WithValue(ctx, spanCtxKey{}, s)
}

func (t *tracer) push(s *span) {
	s.tr, s.open = t, true
	t.mu.Lock()
	s.ID = int64(len(t.spans) + 1)
	s.StartNS = time.Since(t.epoch).Nanoseconds()
	t.spans = append(t.spans, s)
	t.open = append(t.open, s)
	t.mu.Unlock()
}

// bindRun makes s the parent of every span recorded under the product's
// run ID (the X-Seedb-Trace response header or the ID-capture cell).
func (t *tracer) bindRun(runID string, s *span) {
	if t == nil || runID == "" || s == nil {
		return
	}
	t.mu.Lock()
	if _, ok := t.runParent["run:"+runID]; !ok {
		t.runParent["run:"+runID] = s.ID
	}
	t.mu.Unlock()
}

func (s *span) attr(k, v string) *span {
	if s != nil {
		if s.Attrs == nil {
			s.Attrs = map[string]string{}
		}
		s.Attrs[k] = v
	}
	return s
}

func (s *span) adopt() *span {
	if s != nil {
		s.adopts = true
	}
	return s
}

func (s *span) end() {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	s.EndNS = time.Since(t.epoch).Nanoseconds()
	s.open = false
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == s {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// finish resolves run-scoped spans to the request that caused them and
// returns the closed spans; spans no request claimed stay parentless.
func (t *tracer) finish() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[int64]*span, len(t.spans))
	for _, s := range t.spans {
		byID[s.ID] = s
	}
	for _, s := range t.spans {
		if s.Parent == 0 && s.Trace == "" {
			s.Parent = t.runParent[s.scope]
		}
	}
	var done []*span
	for _, s := range t.spans { // parents precede children: IDs are start-ordered
		if s.open {
			continue
		}
		if p := byID[s.Parent]; p != nil && s.Trace == "" {
			s.Trace = p.Trace
		}
		done = append(done, s)
	}
	return done
}

// opBreakdown is one operation's wall time split by layer self time.
type opBreakdown struct {
	name string
	wall time.Duration
	self map[string]time.Duration // layer -> summed self time
}

// breakdowns computes, per root span, each layer's self time: a span's
// duration minus the part of it its children cover (children may run in
// parallel, so coverage is the union of their intervals).
func breakdowns(spans []*span) []opBreakdown {
	children := map[int64][]*span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var out []opBreakdown
	var walk func(s *span, into map[string]time.Duration)
	walk = func(s *span, into map[string]time.Duration) {
		kids := children[s.ID]
		into[s.Layer] += time.Duration(s.EndNS-s.StartNS) - covered(s, kids)
		for _, k := range kids {
			walk(k, into)
		}
	}
	for _, s := range spans {
		if s.Parent != 0 || s.Layer != layerHarness {
			continue
		}
		b := opBreakdown{name: s.Name, wall: time.Duration(s.EndNS - s.StartNS), self: map[string]time.Duration{}}
		walk(s, b.self)
		out = append(out, b)
	}
	return out
}

func covered(parent *span, kids []*span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return time.Duration(total)
}

func writeTrace(path string, spans []*span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
