package frontend

// Observability endpoints and HTTP instrumentation.
//
// The server carries the DB's obs.Hub (metrics registry + trace ring)
// when the service layer installed it (ServeConfig.DisableObservability
// unset). Instrumentation is observation-only: every response body is
// byte-identical with the hub exported or not — metrics are recorded
// after the handler ran, and trace IDs travel in headers and SSE
// progress payloads, never in result bytes.

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"seedb/internal/obs"
)

// routeLabel collapses unknown paths to "other" so a path-scanning
// client cannot explode the metric's label cardinality.
func routeLabel(path string) string {
	if _, ok := routes[path]; ok {
		return path
	}
	return "other"
}

// installObs attaches the hub and registers the HTTP-frontend metrics.
// Called once from NewWithConfig; with a nil hub the server keeps its
// uninstrumented fast path and /metrics + /api/trace answer 404.
func (s *Server) installObs(h *obs.Hub) {
	if h == nil {
		return
	}
	s.hub = h
	s.httpRequests = h.Metrics.CounterVec("seedb_http_requests_total",
		"HTTP requests served, by route, method, and status code.",
		"route", "method", "code")
	s.httpLatency = h.Metrics.HistogramVec("seedb_http_request_seconds",
		"HTTP request latency by route.", obs.DefBuckets, "route")
}

// statusRecorder remembers the status code a handler wrote so the
// middleware can label the request counter after the fact.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// flushRecorder is a statusRecorder that keeps http.Flusher visible:
// the SSE handler type-asserts the flusher and refuses writers without
// one, so the middleware must not hide it.
type flushRecorder struct {
	*statusRecorder
	fl http.Flusher
}

func (f flushRecorder) Flush() { f.fl.Flush() }

// observe wraps the mux dispatch with request counting and latency
// measurement. It is the whole of the HTTP middleware — with metrics
// uninstalled the caller dispatches to the mux directly.
func (s *Server) observe(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w}
	var ww http.ResponseWriter = rec
	if fl, ok := w.(http.Flusher); ok {
		ww = flushRecorder{rec, fl}
	}
	s.mux.ServeHTTP(ww, r)
	status := rec.status
	if status == 0 {
		status = http.StatusOK
	}
	route := routeLabel(r.URL.Path)
	s.httpRequests.With(route, r.Method, strconv.Itoa(status)).Add(1)
	s.httpLatency.With(route).Observe(time.Since(start).Seconds())
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (version 0.0.4). 404 when observability is disabled.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if s.hub == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	s.hub.Metrics.WritePrometheus(w)
}

// handleTrace serves GET /api/trace: with ?id= the full span dump of
// one completed run, without it a newest-first list of retained traces
// (?n= caps the list, default 20). 404 when observability is disabled.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if s.hub == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Cache-Control", "no-store")
	if id := r.URL.Query().Get("id"); id != "" {
		d, ok := s.hub.Traces.Get(id)
		if !ok {
			s.writeError(w, http.StatusNotFound,
				fmt.Errorf("frontend: no completed trace %q (the ring retains recent runs only)", id))
			return
		}
		s.writeJSON(w, http.StatusOK, d)
		return
	}
	n := 20
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			n = v
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"retained": s.hub.Traces.Len(),
		"traces":   s.hub.Traces.Recent(n),
	})
}

// EnableDebug mounts net/http/pprof under /debug/pprof/. Off by
// default; cmd/seedb exposes it behind the -debug flag because the
// profiling endpoints reveal internals and can run CPU profiles on
// demand — not something to leave open on an exposed port.
func (s *Server) EnableDebug() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
