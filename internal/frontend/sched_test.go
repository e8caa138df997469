package frontend

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"seedb"
	"seedb/internal/core"
	"seedb/internal/engine"
)

// holdBackend wraps the DB's active backend and parks every query
// until the gate closes (or the query's context ends). It preserves
// the inner backend's signature so exec-cache keys are unchanged —
// held runs and solo runs share one cache world.
type holdBackend struct {
	inner seedb.Backend
	gate  chan struct{}
}

func (h *holdBackend) Run(ctx context.Context, q *engine.Query) (*engine.Result, error) {
	select {
	case <-h.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return h.inner.Run(ctx, q)
}

func (h *holdBackend) RunSharedScan(ctx context.Context, q *engine.Query, gsets []engine.GroupingSet) ([]*engine.Result, error) {
	select {
	case <-h.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return h.inner.RunSharedScan(ctx, q, gsets)
}

func (h *holdBackend) Signature() string { return h.inner.Signature() }

// holdCache wraps the engine's exec cache and parks every lookup until
// the gate closes (or the run's context ends). A run served wholly from
// the cache never reaches the backend, so this is where a warm run is
// held; the inner cache answers, so held and solo runs share one cache
// world.
type holdCache struct {
	inner core.ExecCache
	gate  chan struct{}
}

func (h *holdCache) GetOrCompute(ctx context.Context, key string, compute func() ([]*engine.Result, bool, error)) ([]*engine.Result, error) {
	select {
	case <-h.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return h.inner.GetOrCompute(ctx, key, compute)
}

// slowBackend delays every query by a fixed amount — a deterministic
// way to make a run outlast a short deadline.
type slowBackend struct {
	inner seedb.Backend
	delay time.Duration
}

func (s *slowBackend) Run(ctx context.Context, q *engine.Query) (*engine.Result, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.inner.Run(ctx, q)
}

func (s *slowBackend) RunSharedScan(ctx context.Context, q *engine.Query, gsets []engine.GroupingSet) ([]*engine.Result, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.inner.RunSharedScan(ctx, q, gsets)
}

func (s *slowBackend) Signature() string { return s.inner.Signature() }

// waitForStats polls the service's scheduler counters.
func waitForStats(t *testing.T, db *seedb.DB, what string, cond func(seedb.SchedulerStats) bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond(db.Service().SchedulerStats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (stats %+v)", what, db.Service().SchedulerStats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescedMatchesSolo pins the scheduler's headline guarantee at
// the HTTP layer: a response served by joining an in-flight identical
// run is byte-identical to a solo run of the same request — on the
// plain backend and on placed fleets of every size, with the
// views additionally identical ACROSS backends. elapsedMillis (wall
// clock) is normalized; all runs execute against the same warm cache
// so the executor counters agree exactly.
func TestCoalescedMatchesSolo(t *testing.T) {
	var referenceViews string
	for _, workers := range []int{0, 1, 2, 4, 8} { // 0 = plain in-process backend
		db := streamTestDB(t)
		b := placeStreamTestDB(t, db, workers)
		s := New(db, nil, nil)
		req := map[string]any{
			"sql": "SELECT * FROM orders WHERE category = 'Furniture'",
			"k":   3,
		}
		// Warm the shared view cache, then take the solo reference.
		if warm := postJSON(t, s, "/api/recommend", req); warm.Code != http.StatusOK {
			t.Fatalf("workers=%d: warm-up status %d: %s", workers, warm.Code, warm.Body.String())
		}
		solo := postJSON(t, s, "/api/recommend", req)
		if solo.Code != http.StatusOK {
			t.Fatalf("workers=%d: solo status %d: %s", workers, solo.Code, solo.Body.String())
		}

		// Hold the cache and fire two identical requests: one starts the
		// run, the other provably coalesces before anything can finish
		// (the gate blocks the run's first exec-cache lookup — the run is
		// warm, so it never reaches the backend).
		base := db.Service().SchedulerStats()
		gate := make(chan struct{})
		cache := db.Engine().Cache()
		db.Engine().SetCache(&holdCache{inner: cache, gate: gate})
		var wg sync.WaitGroup
		responses := make([]*httptest.ResponseRecorder, 2)
		for i := range responses {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				responses[i] = postJSON(t, s, "/api/recommend", req)
			}(i)
		}
		waitForStats(t, db, "one run + one coalesced join", func(st seedb.SchedulerStats) bool {
			return st.RunsStarted == base.RunsStarted+1 && st.Coalesced == base.Coalesced+1
		})
		close(gate)
		wg.Wait()
		db.Engine().SetCache(cache)

		want := normalizeElapsed(solo.Body.Bytes())
		for i, w := range responses {
			if w.Code != http.StatusOK {
				t.Fatalf("workers=%d: concurrent request %d status %d: %s", workers, i, w.Code, w.Body.String())
			}
			if got := normalizeElapsed(w.Body.Bytes()); got != want {
				t.Fatalf("workers=%d: coalesced response %d differs from solo run:\n%s\nvs\n%s", workers, i, got, want)
			}
		}

		var payload struct {
			Views json.RawMessage `json:"views"`
		}
		if err := json.Unmarshal(solo.Body.Bytes(), &payload); err != nil {
			t.Fatal(err)
		}
		if referenceViews == "" {
			referenceViews = string(payload.Views)
		} else if string(payload.Views) != referenceViews {
			t.Fatalf("workers=%d: views differ from single-node reference:\n%s\nvs\n%s",
				workers, payload.Views, referenceViews)
		}
		assertServedByWorkers(t, fmt.Sprintf("workers=%d", workers), b)
	}
}

// TestRecommendSheds503WithRetryAfter drives the server into overload
// deterministically (one worker slot, one queue slot, backend held)
// and asserts the shed contract: HTTP 503, a Retry-After header of at
// least one second, and a JSON error body — while the admitted
// requests complete normally once the backend resumes. Every held
// request is one the server has never answered: a cached run would
// never reach the held backend.
func TestRecommendSheds503WithRetryAfter(t *testing.T) {
	db := streamTestDB(t)
	s := NewWithConfig(db, seedb.ServeConfig{MaxConcurrentRuns: 1, MaxQueueDepth: 1}, nil, nil)
	gate := make(chan struct{})
	db.SetBackend(&holdBackend{inner: db.Backend(), gate: gate})

	mk := func(predicate string) map[string]any {
		return map[string]any{"sql": "SELECT * FROM orders WHERE " + predicate, "k": 2}
	}
	admitted := make(chan *httptest.ResponseRecorder, 2)
	go func() { admitted <- postJSON(t, s, "/api/recommend", mk("category = 'Furniture'")) }()
	waitForStats(t, db, "first run to occupy the slot", func(st seedb.SchedulerStats) bool { return st.Running == 1 })
	go func() { admitted <- postJSON(t, s, "/api/recommend", mk("category = 'Technology'")) }()
	waitForStats(t, db, "second run to queue", func(st seedb.SchedulerStats) bool { return st.Queued == 1 })

	w := postJSON(t, s, "/api/recommend", mk("category = 'Office Supplies'"))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("overloaded request status = %d, want 503 (%s)", w.Code, w.Body.String())
	}
	secs, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", w.Header().Get("Retry-After"))
	}
	var e map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e["error"], "overloaded") {
		t.Fatalf("shed error body = %s", w.Body.String())
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if res := <-admitted; res.Code != http.StatusOK {
			t.Fatalf("admitted request %d status = %d: %s", i, res.Code, res.Body.String())
		}
	}
	if st := db.Service().SchedulerStats(); st.Shed != 1 || st.RunsCompleted != 2 {
		t.Fatalf("stats = %+v, want 2 completed runs and 1 shed", st)
	}

	// The streaming endpoint sheds synchronously too — before any SSE
	// bytes — with the same contract.
	gate2 := make(chan struct{})
	db.SetBackend(&holdBackend{inner: db.Backend(), gate: gate2})
	done := make(chan *httptest.ResponseRecorder, 2)
	go func() { done <- postJSON(t, s, "/api/recommend", mk("region = 'West'")) }()
	waitForStats(t, db, "held run", func(st seedb.SchedulerStats) bool { return st.Running == 1 })
	go func() { done <- postJSON(t, s, "/api/recommend", mk("region = 'Central'")) }()
	waitForStats(t, db, "queued run", func(st seedb.SchedulerStats) bool { return st.Queued == 1 })
	req := httptest.NewRequest(http.MethodGet,
		"/api/recommend/stream?sql=SELECT+*+FROM+orders+WHERE+region+%3D+%27East%27&k=2", nil)
	sw := httptest.NewRecorder()
	s.ServeHTTP(sw, req)
	if sw.Code != http.StatusServiceUnavailable || sw.Header().Get("Retry-After") == "" {
		t.Fatalf("stream shed: status %d, Retry-After %q", sw.Code, sw.Header().Get("Retry-After"))
	}
	close(gate2)
	<-done
	<-done
}

// TestStreamOutlivesBlockingTimeout is the regression test for the
// SSE deadline bug: the streaming endpoint used to wrap the whole
// multi-phase run in the blocking-request timeout, killing legitimate
// high-`phases` runs. With a 30ms blocking budget and a backend slow
// enough that the run needs several times that, the stream must still
// deliver every phase and the done payload.
func TestStreamOutlivesBlockingTimeout(t *testing.T) {
	db := streamTestDB(t)
	s := New(db, nil, nil)
	s.timeout = 30 * time.Millisecond // blocking budget far below the run time
	db.SetBackend(&slowBackend{inner: db.Backend(), delay: 15 * time.Millisecond})

	evs := getStream(t, s, streamQueryTarget, nil) // phases=4: >= 5 queries ≈ 75ms+
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	last := evs[len(evs)-1]
	if last.event != "done" {
		t.Fatalf("last event = %q (%s), want done — the stream was killed by the blocking timeout", last.event, last.data)
	}
	phases := 0
	for _, ev := range evs {
		if ev.event == "phase" {
			phases++
		}
	}
	if phases != 4 {
		t.Fatalf("got %d phase events, want 4", phases)
	}
}

// TestStreamDeadlineEmitsErrorEvent: when the stream's own (longer)
// deadline does expire, the client still gets a terminal error event
// rather than a silently dropped connection.
func TestStreamDeadlineEmitsErrorEvent(t *testing.T) {
	db := streamTestDB(t)
	s := New(db, nil, nil)
	s.streamTimeout = 60 * time.Millisecond
	gate := make(chan struct{}) // never closed: the run can only end by deadline
	db.SetBackend(&holdBackend{inner: db.Backend(), gate: gate})

	evs := getStream(t, s, streamQueryTarget, nil)
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	last := evs[len(evs)-1]
	if last.event != "error" {
		t.Fatalf("last event = %q, want a terminal error event on stream-deadline expiry", last.event)
	}
	var e map[string]string
	if err := json.Unmarshal([]byte(last.data), &e); err != nil || !strings.Contains(e["error"], "deadline") {
		t.Fatalf("error payload = %q, want a deadline message", last.data)
	}
}

// panicBackend stands in for any engine-side panic path.
type panicBackend struct{}

func (panicBackend) Run(ctx context.Context, q *engine.Query) (*engine.Result, error) {
	panic("backend exploded")
}

func (panicBackend) RunSharedScan(ctx context.Context, q *engine.Query, gsets []engine.GroupingSet) ([]*engine.Result, error) {
	panic("backend exploded")
}

func (panicBackend) Signature() string { return "panic" }

// TestPanickedRunAnswers500: a run that dies of a panic is the
// server's fault — the client sees 500, not 400 (monitoring keyed on
// 5xx must fire), and the server keeps serving afterwards.
func TestPanickedRunAnswers500(t *testing.T) {
	db := streamTestDB(t)
	s := New(db, nil, nil)
	db.SetBackend(panicBackend{})
	req := map[string]any{"sql": "SELECT * FROM orders WHERE category = 'Furniture'", "k": 2}
	w := postJSON(t, s, "/api/recommend", req)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicked run status = %d, want 500 (%s)", w.Code, w.Body.String())
	}
	db.SetBackend(nil)
	if w := postJSON(t, s, "/api/recommend", req); w.Code != http.StatusOK {
		t.Fatalf("request after panicked run: %d (%s)", w.Code, w.Body.String())
	}
}

// TestStatsSchedulerSection: /api/stats surfaces the scheduler
// counters (the CI load-smoke asserts coalesced > 0 through this
// section).
func TestStatsSchedulerSection(t *testing.T) {
	s := testServer(t)
	if w := postJSON(t, s, "/api/recommend", map[string]any{
		"sql": "SELECT * FROM sales WHERE product = 'Laserwave'", "k": 2,
	}); w.Code != http.StatusOK {
		t.Fatalf("recommend status %d", w.Code)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	sch := st.Scheduler
	if sch.RunsStarted < 1 || sch.RunsCompleted < 1 {
		t.Fatalf("scheduler counters missing runs: %+v", sch)
	}
	if sch.MaxConcurrentRuns < 2 || sch.MaxQueueDepth < 1 {
		t.Fatalf("scheduler limits not surfaced: %+v", sch)
	}
	if sch.AvgRunMillis <= 0 {
		t.Fatalf("avg run time not tracked: %+v", sch)
	}
	if !bytes.Contains(w.Body.Bytes(), []byte(`"coalesced"`)) {
		t.Fatal("stats JSON must carry the coalesced counter for the CI load smoke")
	}
}
