package frontend

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"seedb"
)

// ---------------------------------------------------------------------
// A small parser for the Prometheus text exposition format (0.0.4),
// strict enough to catch framing bugs: HELP/TYPE lines, escaped label
// values, histogram series. The roundtrip test scrapes /metrics,
// parses it back, and checks the invariants scrapers rely on.

type expoSample struct {
	name   string
	labels map[string]string
	value  float64
}

type exposition struct {
	help    map[string]string
	typ     map[string]string
	samples []expoSample
}

func parseExposition(t *testing.T, body string) *exposition {
	t.Helper()
	e := &exposition{help: map[string]string{}, typ: map[string]string{}}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: malformed HELP line %q", ln+1, line)
			}
			e.help[name] = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || (typ != "counter" && typ != "gauge" && typ != "histogram") {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			e.typ[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form %q", ln+1, line)
		}
		e.samples = append(e.samples, parseSampleLine(t, ln+1, line))
	}
	return e
}

func parseSampleLine(t *testing.T, ln int, line string) expoSample {
	t.Helper()
	s := expoSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: no value separator in %q", ln, line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			eq := strings.Index(rest, "=\"")
			if eq < 0 {
				t.Fatalf("line %d: malformed label in %q", ln, line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			// Unescape the quoted value: \\ , \" , \n.
			var val strings.Builder
			for {
				if rest == "" {
					t.Fatalf("line %d: unterminated label value in %q", ln, line)
				}
				c := rest[0]
				if c == '"' {
					rest = rest[1:]
					break
				}
				if c == '\\' {
					if len(rest) < 2 {
						t.Fatalf("line %d: dangling escape in %q", ln, line)
					}
					switch rest[1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("line %d: unknown escape \\%c in %q", ln, rest[1], line)
					}
					rest = rest[2:]
					continue
				}
				val.WriteByte(c)
				rest = rest[1:]
			}
			s.labels[key] = val.String()
			rest = strings.TrimPrefix(rest, ",")
		}
		rest = strings.TrimPrefix(rest, "}")
	}
	rest = strings.TrimPrefix(rest, " ")
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		t.Fatalf("line %d: bad sample value in %q: %v", ln, line, err)
	}
	s.value = v
	return s
}

// familyOf maps a sample name to its TYPE family (histogram series use
// the base name + _bucket/_sum/_count).
func (e *exposition) familyOf(name string) (string, bool) {
	if _, ok := e.typ[name]; ok {
		return name, true
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && e.typ[base] == "histogram" {
			return base, true
		}
	}
	return "", false
}

func scrapeMetrics(t *testing.T, s *Server) *exposition {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	return parseExposition(t, w.Body.String())
}

// total sums every sample of a family (all label combinations).
func (e *exposition) total(name string) float64 {
	var sum float64
	for _, s := range e.samples {
		if s.name == name {
			sum += s.value
		}
	}
	return sum
}

func TestMetricsExpositionRoundtrip(t *testing.T) {
	s := testServer(t)

	// Drive traffic through the full pipeline first so the scrape has
	// scheduler, cache, phase, and HTTP series to check.
	for i := 0; i < 2; i++ {
		if w := postJSON(t, s, "/api/recommend", map[string]any{
			"sql": "SELECT * FROM sales WHERE product = 'Laserwave'",
		}); w.Code != http.StatusOK {
			t.Fatalf("recommend = %d: %s", w.Code, w.Body.String())
		}
	}
	// A label value needing every escape, via a test-only metric on the
	// same registry the endpoint serves.
	nasty := "a\\b\"c\nd"
	s.hub.Metrics.CounterVec("seedb_test_escape_total", "Escaping fixture with a \"quoted\" help\nline.", "v").
		With(nasty).Add(3)

	e := scrapeMetrics(t, s)

	// Every sample belongs to a family with HELP and TYPE lines.
	for _, sm := range e.samples {
		fam, ok := e.familyOf(sm.name)
		if !ok {
			t.Fatalf("sample %q has no TYPE line", sm.name)
		}
		if _, ok := e.help[fam]; !ok {
			t.Fatalf("family %q has no HELP line", fam)
		}
	}

	// The families the tentpole promises, by component.
	for _, fam := range []string{
		"seedb_http_requests_total", "seedb_http_request_seconds",
		"seedb_scheduler_runs_started_total", "seedb_scheduler_runs_completed_total",
		"seedb_scheduler_queue_wait_seconds", "seedb_run_duration_seconds",
		"seedb_phase_duration_seconds", "seedb_cache_hits_total",
		"seedb_cache_misses_total", "seedb_cache_bytes", "seedb_sessions",
		"seedb_pstore_hits_total", "seedb_pstore_evictions_total", "seedb_pstore_entries",
	} {
		if _, ok := e.typ[fam]; !ok {
			t.Errorf("scrape is missing family %q", fam)
		}
	}

	// Label escaping roundtrips: the parser's unescape must recover the
	// original value exactly.
	found := false
	for _, sm := range e.samples {
		if sm.name == "seedb_test_escape_total" {
			found = true
			if got := sm.labels["v"]; got != nasty {
				t.Errorf("escaped label roundtrip: got %q want %q", got, nasty)
			}
			if sm.value != 3 {
				t.Errorf("escape fixture value = %v", sm.value)
			}
		}
	}
	if !found {
		t.Error("escape fixture did not appear in the scrape")
	}

	// Histogram invariants, per family and label subset: le strictly
	// increasing and ending at +Inf, cumulative counts non-decreasing,
	// +Inf bucket == _count, _sum finite.
	type series struct {
		les     []float64
		counts  []float64
		sum     float64
		count   float64
		hasSum  bool
		hasCnt  bool
		buckets int
	}
	hists := map[string]*series{}
	keyOf := func(sm expoSample) string {
		ks := make([]string, 0, len(sm.labels))
		for k := range sm.labels {
			if k != "le" {
				ks = append(ks, k+"="+sm.labels[k])
			}
		}
		sort.Strings(ks)
		return strings.Join(ks, ",")
	}
	get := func(fam string, sm expoSample) *series {
		k := fam + "|" + keyOf(sm)
		if hists[k] == nil {
			hists[k] = &series{}
		}
		return hists[k]
	}
	for _, sm := range e.samples {
		fam, _ := e.familyOf(sm.name)
		if e.typ[fam] != "histogram" {
			continue
		}
		switch {
		case strings.HasSuffix(sm.name, "_bucket"):
			le := sm.labels["le"]
			v := math.Inf(1)
			if le != "+Inf" {
				var err error
				if v, err = strconv.ParseFloat(le, 64); err != nil {
					t.Fatalf("%s: bad le %q", sm.name, le)
				}
			}
			sr := get(fam, sm)
			sr.les = append(sr.les, v)
			sr.counts = append(sr.counts, sm.value)
			sr.buckets++
		case strings.HasSuffix(sm.name, "_sum"):
			sr := get(fam, sm)
			sr.sum, sr.hasSum = sm.value, true
		case strings.HasSuffix(sm.name, "_count"):
			sr := get(fam, sm)
			sr.count, sr.hasCnt = sm.value, true
		}
	}
	if len(hists) == 0 {
		t.Fatal("no histogram series scraped")
	}
	for k, sr := range hists {
		if !sr.hasSum || !sr.hasCnt {
			t.Errorf("%s: missing _sum or _count", k)
			continue
		}
		if sr.buckets == 0 || !math.IsInf(sr.les[len(sr.les)-1], 1) {
			t.Errorf("%s: bucket series does not end at +Inf: %v", k, sr.les)
			continue
		}
		for i := 1; i < len(sr.les); i++ {
			if sr.les[i] <= sr.les[i-1] {
				t.Errorf("%s: le not strictly increasing at %d: %v", k, i, sr.les)
			}
			if sr.counts[i] < sr.counts[i-1] {
				t.Errorf("%s: cumulative counts decrease at %d: %v", k, i, sr.counts)
			}
		}
		if inf := sr.counts[len(sr.counts)-1]; inf != sr.count {
			t.Errorf("%s: +Inf bucket %v != _count %v", k, inf, sr.count)
		}
		if math.IsNaN(sr.sum) || math.IsInf(sr.sum, 0) {
			t.Errorf("%s: _sum not finite: %v", k, sr.sum)
		}
	}

	// Counter monotonicity across requests: another burst of traffic
	// must only increase counters.
	before := map[string]float64{}
	for _, fam := range []string{"seedb_http_requests_total", "seedb_scheduler_runs_completed_total", "seedb_cache_hits_total", "seedb_cache_misses_total"} {
		before[fam] = e.total(fam)
	}
	if w := postJSON(t, s, "/api/recommend", map[string]any{
		"sql": "SELECT * FROM sales WHERE product = 'Laserwave'",
	}); w.Code != http.StatusOK {
		t.Fatalf("recommend = %d", w.Code)
	}
	e2 := scrapeMetrics(t, s)
	for fam, b := range before {
		if a := e2.total(fam); a < b {
			t.Errorf("%s went backwards: %v -> %v", fam, b, a)
		}
	}
	if a, b := e2.total("seedb_http_requests_total"), before["seedb_http_requests_total"]; a <= b {
		t.Errorf("http request counter did not advance: %v -> %v", b, a)
	}
}

// TestMetricsMirrorStoreStats: /metrics and /api/stats read the partial
// store through the same snapshot, so every store figure an operator
// can see in one is in the other — evictions and entries included.
func TestMetricsMirrorStoreStats(t *testing.T) {
	s := testServer(t)
	// orders has 2,000 rows: one sealed cell, so its scans reach the store.
	for _, category := range []string{"Furniture", "Technology"} {
		if w := postJSON(t, s, "/api/recommend", map[string]any{
			"sql": "SELECT * FROM orders WHERE category = '" + category + "'",
		}); w.Code != http.StatusOK {
			t.Fatalf("recommend = %d: %s", w.Code, w.Body.String())
		}
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Incremental == nil || st.Incremental.Store.Entries == 0 {
		t.Fatalf("the default service should have stored runs: %s", w.Body.String())
	}
	e := scrapeMetrics(t, s)
	store := st.Incremental.Store
	for name, want := range map[string]int64{
		"seedb_pstore_hits_total":         store.Hits,
		"seedb_pstore_misses_total":       store.Misses,
		"seedb_pstore_evictions_total":    store.Evictions,
		"seedb_pstore_rows_reused_total":  store.RowsReused,
		"seedb_pstore_rows_scanned_total": store.RowsScanned,
		"seedb_pstore_entries":            int64(store.Entries),
		"seedb_pstore_bytes":              store.Bytes,
	} {
		if _, ok := e.typ[name]; !ok {
			t.Errorf("scrape is missing family %q", name)
		} else if got := e.total(name); got != float64(want) {
			t.Errorf("%s = %v, /api/stats says %d", name, got, want)
		}
	}
}

func TestMetricsAndTraceEndpointDiscipline(t *testing.T) {
	s := testServer(t)
	// Non-GET rejection, consistent with the other read endpoints.
	for _, path := range []string{"/metrics", "/api/trace", "/api/stats"} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader("{}")))
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, w.Code)
		}
	}
	// Live snapshots must not be cached.
	for _, path := range []string{"/metrics", "/api/stats", "/api/trace"} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if cc := w.Header().Get("Cache-Control"); cc != "no-store" {
			t.Errorf("GET %s Cache-Control = %q, want no-store", path, cc)
		}
	}
}

func TestObservabilityDisabled404s(t *testing.T) {
	db := seedb.Open()
	if err := db.RegisterTable(seedb.LaserwaveTable("sales", seedb.ScenarioA)); err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(db, seedb.ServeConfig{DisableObservability: true}, nil, nil)
	for _, path := range []string{"/metrics", "/api/trace"} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusNotFound {
			t.Errorf("GET %s with observability disabled = %d, want 404", path, w.Code)
		}
	}
	// The pipeline itself still works, without a trace header.
	w := postJSON(t, s, "/api/recommend", map[string]any{"sql": "SELECT * FROM sales WHERE product = 'Laserwave'"})
	if w.Code != http.StatusOK {
		t.Fatalf("recommend = %d: %s", w.Code, w.Body.String())
	}
	if h := w.Header().Get("X-Seedb-Trace"); h != "" {
		t.Errorf("trace header %q present with observability disabled", h)
	}
}

func TestTraceHeaderAndTraceEndpoint(t *testing.T) {
	s := testServer(t)
	w := postJSON(t, s, "/api/recommend", map[string]any{"sql": "SELECT * FROM sales WHERE product = 'Laserwave'"})
	if w.Code != http.StatusOK {
		t.Fatalf("recommend = %d: %s", w.Code, w.Body.String())
	}
	id := w.Header().Get("X-Seedb-Trace")
	if id == "" {
		t.Fatal("no X-Seedb-Trace header on the recommend response")
	}
	// The run's trace must be dumpable by that ID.
	tw := httptest.NewRecorder()
	s.ServeHTTP(tw, httptest.NewRequest(http.MethodGet, "/api/trace?id="+id, nil))
	if tw.Code != http.StatusOK {
		t.Fatalf("GET /api/trace?id=%s = %d: %s", id, tw.Code, tw.Body.String())
	}
	body := tw.Body.String()
	for _, frag := range []string{fmt.Sprintf("%q", id), "scheduler-queue", "cache-lookup"} {
		if !strings.Contains(body, frag) {
			t.Errorf("trace dump missing %s: %s", frag, body)
		}
	}
	// Unknown IDs 404; the bare endpoint lists recent traces.
	nw := httptest.NewRecorder()
	s.ServeHTTP(nw, httptest.NewRequest(http.MethodGet, "/api/trace?id=nope", nil))
	if nw.Code != http.StatusNotFound {
		t.Errorf("GET /api/trace?id=nope = %d, want 404", nw.Code)
	}
	lw := httptest.NewRecorder()
	s.ServeHTTP(lw, httptest.NewRequest(http.MethodGet, "/api/trace", nil))
	if lw.Code != http.StatusOK || !strings.Contains(lw.Body.String(), id) {
		t.Errorf("GET /api/trace = %d, body misses %s", lw.Code, id)
	}
}
