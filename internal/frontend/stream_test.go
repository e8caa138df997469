package frontend

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"seedb"
)

// sseEvent is one parsed Server-Sent Event frame.
type sseEvent struct {
	id    string
	event string
	data  string
}

// parseSSE splits a recorded SSE body into frames.
func parseSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var evs []sseEvent
	for _, frame := range strings.Split(body, "\n\n") {
		if strings.TrimSpace(frame) == "" {
			continue
		}
		var ev sseEvent
		for _, line := range strings.Split(frame, "\n") {
			switch {
			case strings.HasPrefix(line, "id: "):
				ev.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				ev.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			default:
				t.Fatalf("unparseable SSE line %q in frame %q", line, frame)
			}
		}
		evs = append(evs, ev)
	}
	return evs
}

func getStream(t *testing.T, s *Server, target string, header http.Header) []sseEvent {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("stream status = %d, body %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	return parseSSE(t, w.Body.String())
}

const streamQueryTarget = "/api/recommend/stream?sql=SELECT+*+FROM+orders+WHERE+category+%3D+%27Furniture%27&k=3&phases=4"

// TestStreamEndpointPhasesAndDone: the stream carries one phase event
// per execution phase (ids sequenced under one digest), ends with a
// done event whose payload is a full recommendation response, and the
// final phase snapshot agrees with it.
func TestStreamEndpointPhasesAndDone(t *testing.T) {
	s := testServer(t)
	evs := getStream(t, s, streamQueryTarget, nil)
	if len(evs) < 2 {
		t.Fatalf("got %d events, want phases + done", len(evs))
	}

	var phases []streamPhaseJSON
	var doneData string
	var doneID string
	for i, ev := range evs {
		switch ev.event {
		case "phase":
			var p streamPhaseJSON
			if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
				t.Fatalf("phase event %d: %v (%s)", i, err, ev.data)
			}
			phases = append(phases, p)
		case "prune":
			var p streamPruneJSON
			if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
				t.Fatalf("prune event %d: %v", i, err)
			}
			if len(p.Views) == 0 {
				t.Errorf("prune event %d names no views", i)
			}
		case "done":
			if i != len(evs)-1 {
				t.Fatalf("done event at position %d of %d", i, len(evs))
			}
			doneData, doneID = ev.data, ev.id
		default:
			t.Fatalf("unexpected event type %q", ev.event)
		}
	}
	if doneData == "" {
		t.Fatal("no done event")
	}
	if !strings.HasSuffix(doneID, ":done") {
		t.Errorf("done id = %q, want <digest>:done", doneID)
	}
	// The run starts before the handler subscribes, and a full mailbox
	// drops its oldest snapshot, so early phases may be missing; what
	// conflation guarantees is an increasing series ending in the
	// final phase, then done.
	if len(phases) == 0 {
		t.Fatal("got no phase events, want at least the final one")
	}
	for i, p := range phases {
		if p.Phases != 4 || p.Phase < 1 || p.Phase > 4 || (i > 0 && p.Phase <= phases[i-1].Phase) {
			t.Errorf("phase event %d = %d/%d, want phases increasing within 1..4 of 4", i, p.Phase, p.Phases)
		}
		if len(p.Ranking) == 0 || len(p.Ranking) > 3 {
			t.Errorf("phase %d ranking has %d entries, want 1..k=3", i, len(p.Ranking))
		}
		if got, want := p.Final, i == len(phases)-1; got != want {
			t.Errorf("phase %d Final=%v, want %v", i, got, want)
		}
	}

	var done recommendResponse
	if err := json.Unmarshal([]byte(doneData), &done); err != nil {
		t.Fatalf("done payload: %v", err)
	}
	if len(done.Views) == 0 {
		t.Fatal("done payload has no views")
	}
	final := phases[len(phases)-1]
	if final.Phase != 4 {
		t.Errorf("last phase event = %d/4, want 4/4", final.Phase)
	}
	if final.Ranking[0].Title != done.Views[0].Title {
		t.Errorf("final snapshot leader %q != done leader %q", final.Ranking[0].Title, done.Views[0].Title)
	}
}

// elapsedRe matches the one wall-clock field of the response; all
// other bytes are deterministic and pinned exactly.
var elapsedRe = regexp.MustCompile(`"elapsedMillis":[0-9.eE+-]+`)

func normalizeElapsed(b []byte) string {
	return string(elapsedRe.ReplaceAll(b, []byte(`"elapsedMillis":0`)))
}

// queriesRe matches the executor-counter field, which reflects cache
// warmth rather than the request: a cold run issues scans a warm run
// serves from the shared view cache.
var queriesRe = regexp.MustCompile(`"queriesIssued":[0-9]+`)

func normalizeCounters(b []byte) string {
	return queriesRe.ReplaceAllString(normalizeElapsed(b), `"queriesIssued":0`)
}

// streamTestDB builds a deterministic dataset instance.
func streamTestDB(t *testing.T) *seedb.DB {
	t.Helper()
	db := seedb.Open()
	if err := db.RegisterTable(seedb.SuperstoreTable("orders", 3000, 42)); err != nil {
		t.Fatal(err)
	}
	return db
}

// placeStreamTestDB makes db a coordinator placing its tables rf=2 over
// n in-process members (0 keeps the plain in-process backend).
func placeStreamTestDB(t *testing.T, db *seedb.DB, n int) *seedb.ClusterBackend {
	t.Helper()
	if n == 0 {
		return nil
	}
	b, err := db.PlaceMembers(context.Background(), n, seedb.PlacementConfig{Replication: 2, PlacementChunks: 1})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertServedByWorkers fails unless b (when set) sent its scans to
// its workers and every task was served there.
func assertServedByWorkers(t *testing.T, what string, b *seedb.ClusterBackend) {
	t.Helper()
	if b == nil {
		return
	}
	if c := b.Counters(); c.ShardCalls == 0 || c.Failovers != 0 || c.Mismatches != 0 {
		t.Fatalf("%s: want every task served by a worker: %+v", what, c)
	}
}

// TestStreamDoneMatchesBlocking pins the endpoint's core guarantee:
// the terminal done payload is byte-identical to the blocking
// /api/recommend response for the same request — on the single-node
// backend and on placed fleets of every size. Two fields are
// not functions of the request alone and are handled explicitly: the
// elapsedMillis wall clock is normalized, and the executor-counter
// stats (queriesIssued) are made comparable by warming the shared
// view cache first, so both responses run from identical cache state.
// The recommended views themselves (ranks, utilities at full float
// precision, keys, SVGs) must additionally be byte-identical ACROSS
// backends — the frontend face of the engine's exact-accumulator
// guarantee.
func TestStreamDoneMatchesBlocking(t *testing.T) {
	var referenceViews string
	for _, workers := range []int{0, 1, 2, 4, 8} { // 0 = plain in-process backend
		db := streamTestDB(t)
		b := placeStreamTestDB(t, db, workers)
		s := New(db, nil, nil)

		req := map[string]any{
			"sql":    "SELECT * FROM orders WHERE category = 'Furniture'",
			"k":      3,
			"phases": 4,
		}
		if warm := postJSON(t, s, "/api/recommend", req); warm.Code != http.StatusOK {
			t.Fatalf("workers=%d: warm-up status %d: %s", workers, warm.Code, warm.Body.String())
		}
		blocking := postJSON(t, s, "/api/recommend", req)
		if blocking.Code != http.StatusOK {
			t.Fatalf("workers=%d: blocking status %d: %s", workers, blocking.Code, blocking.Body.String())
		}
		// The blocking encoder appends a trailing newline; the SSE data
		// line cannot carry one.
		blockingBody := string(bytes.TrimSuffix(blocking.Body.Bytes(), []byte("\n")))

		evs := getStream(t, s, streamQueryTarget, nil)
		last := evs[len(evs)-1]
		if last.event != "done" {
			t.Fatalf("workers=%d: last event %q, want done", workers, last.event)
		}

		gotN := normalizeElapsed([]byte(last.data))
		wantN := normalizeElapsed([]byte(blockingBody))
		if gotN != wantN {
			t.Fatalf("workers=%d: stream done payload differs from blocking response:\n%s\nvs\n%s", workers, gotN, wantN)
		}

		var payload struct {
			Views json.RawMessage `json:"views"`
		}
		if err := json.Unmarshal([]byte(last.data), &payload); err != nil {
			t.Fatal(err)
		}
		if referenceViews == "" {
			referenceViews = string(payload.Views)
		} else if string(payload.Views) != referenceViews {
			t.Fatalf("workers=%d: recommended views differ from single-node reference:\n%s\nvs\n%s",
				workers, payload.Views, referenceViews)
		}
		assertServedByWorkers(t, fmt.Sprintf("workers=%d", workers), b)
	}
}

// TestStreamResumeWithLastEventID: reconnecting with a matching
// Last-Event-ID skips the re-stream — the server answers with only the
// done event, identical to the original.
func TestStreamResumeWithLastEventID(t *testing.T) {
	s := testServer(t)
	evs := getStream(t, s, streamQueryTarget, nil)
	last := evs[len(evs)-1]
	if last.event != "done" {
		t.Fatalf("last event %q", last.event)
	}

	h := http.Header{}
	h.Set("Last-Event-ID", last.id)
	resumed := getStream(t, s, streamQueryTarget, h)
	if len(resumed) != 1 || resumed[0].event != "done" {
		t.Fatalf("resume returned %d events (first %q), want exactly one done", len(resumed), resumed[0].event)
	}
	// The original stream ran cold (it issued the scans); the resume is
	// served warm from the cache those scans populated — so the
	// executor-counter field differs by design and is normalized along
	// with the wall clock.
	if normalizeCounters([]byte(resumed[0].data)) != normalizeCounters([]byte(last.data)) {
		t.Error("resumed done payload differs from original")
	}

	// A stale digest (different request parameters) restarts the full
	// stream instead.
	restart := getStream(t, s, streamQueryTarget+"&metric=js", h)
	if len(restart) < 2 {
		t.Fatalf("stale-digest reconnect returned %d events, want a full stream", len(restart))
	}
}

// TestStreamResumeAfterIngest: an append bumps the table fingerprint,
// so a reconnect with the old digest must restart rather than serve a
// stale cached answer.
func TestStreamResumeAfterIngest(t *testing.T) {
	s := testServer(t)
	evs := getStream(t, s, streamQueryTarget, nil)
	doneID := evs[len(evs)-1].id

	w := postJSON(t, s, "/api/ingest", map[string]any{
		"table": "orders",
		"rows": [][]any{{"East", "NY", "Consumer", "Furniture", "Bookcases",
			"Standard", "01-Jan", 120.5, 12.75, 2, 0.1}},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("ingest failed: %d %s", w.Code, w.Body.String())
	}

	h := http.Header{}
	h.Set("Last-Event-ID", doneID)
	restart := getStream(t, s, streamQueryTarget, h)
	if len(restart) < 2 {
		t.Fatalf("post-append reconnect returned %d events, want a full re-stream", len(restart))
	}
	if restart[len(restart)-1].event != "done" {
		t.Fatal("re-stream did not finish with done")
	}
	if strings.HasPrefix(restart[len(restart)-1].id, strings.SplitN(doneID, ":", 2)[0]+":") {
		t.Error("digest did not change after append")
	}
}

// TestStreamErrors: parameter and execution failures surface properly.
func TestStreamErrors(t *testing.T) {
	s := testServer(t)

	// Missing sql: plain HTTP 400, no stream.
	req := httptest.NewRequest(http.MethodGet, "/api/recommend/stream", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("missing sql: status %d", w.Code)
	}

	// Bad SQL: 400 before any stream starts.
	req = httptest.NewRequest(http.MethodGet, "/api/recommend/stream?sql=SELEC+garbage", nil)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("bad sql: status %d", w.Code)
	}

	// Unknown session: 404.
	req = httptest.NewRequest(http.MethodGet, streamQueryTarget+"&session=s-nope", nil)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Errorf("unknown session: status %d", w.Code)
	}

	// Empty target subset: the stream starts, then fails — as an error
	// event, since the HTTP status is already committed.
	evs := getStream(t, s, "/api/recommend/stream?sql=SELECT+*+FROM+orders+WHERE+category+%3D+%27NoSuch%27&phases=3", nil)
	last := evs[len(evs)-1]
	if last.event != "error" {
		t.Fatalf("empty subset: last event %q, want error", last.event)
	}
	var e map[string]string
	if err := json.Unmarshal([]byte(last.data), &e); err != nil || e["error"] == "" {
		t.Fatalf("error payload %q", last.data)
	}

	// POST is rejected.
	req = httptest.NewRequest(http.MethodPost, streamQueryTarget, nil)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d", w.Code)
	}
}

// TestStreamSinglePass: without phases the stream still delivers one
// final phase snapshot and the done payload.
func TestStreamSinglePass(t *testing.T) {
	s := testServer(t)
	evs := getStream(t, s, "/api/recommend/stream?sql=SELECT+*+FROM+orders+WHERE+category+%3D+%27Furniture%27&k=3", nil)
	if len(evs) != 2 {
		t.Fatalf("got %d events, want phase + done", len(evs))
	}
	var p streamPhaseJSON
	if err := json.Unmarshal([]byte(evs[0].data), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Final || p.Phase != 1 || p.Phases != 1 {
		t.Errorf("single-pass snapshot = %+v, want final 1/1", p)
	}
	if evs[1].event != "done" {
		t.Errorf("last event %q", evs[1].event)
	}
}

// TestStreamSessionOptions: a session's defaults (here: phases) apply
// to its streams.
func TestStreamSessionOptions(t *testing.T) {
	s := testServer(t)
	w := postJSON(t, s, "/api/session", map[string]any{"phases": 3, "k": 2})
	if w.Code != http.StatusOK {
		t.Fatalf("session create: %d", w.Code)
	}
	var sess sessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sess); err != nil {
		t.Fatal(err)
	}
	evs := getStream(t, s, "/api/recommend/stream?sql=SELECT+*+FROM+orders+WHERE+category+%3D+%27Furniture%27&session="+sess.ID, nil)
	var phases int
	for _, ev := range evs {
		if ev.event == "phase" {
			phases++
		}
	}
	if phases != 3 {
		t.Errorf("session-default phases: got %d phase events, want 3", phases)
	}
}

// TestStreamOperatorsDoneMatchesBlocking extends the done-equals-
// blocking guarantee to every non-deviation exploration operator: the
// SSE terminal payload must be byte-identical to the blocking
// /api/recommend response for the same operator knobs, carry the
// operator name back, and annotate every view with a chart type. The
// request plumbing is knob-only, so this is the end-to-end check that
// no operator-specific branch leaked into the streaming path.
func TestStreamOperatorsDoneMatchesBlocking(t *testing.T) {
	cases := []struct{ op, probeDim string }{
		{"similarity", "region"},
		{"outlier", ""},
		{"typical", ""},
		{"trend", ""},
	}
	for _, tc := range cases {
		t.Run(tc.op, func(t *testing.T) {
			db := streamTestDB(t)
			s := New(db, nil, nil)

			req := map[string]any{
				"sql":      "SELECT * FROM orders WHERE category = 'Furniture'",
				"k":        3,
				"phases":   4,
				"operator": tc.op,
			}
			target := streamQueryTarget + "&operator=" + tc.op
			if tc.probeDim != "" {
				req["probeDimension"] = tc.probeDim
				target += "&probeDimension=" + tc.probeDim
			}
			if warm := postJSON(t, s, "/api/recommend", req); warm.Code != http.StatusOK {
				t.Fatalf("warm-up status %d: %s", warm.Code, warm.Body.String())
			}
			blocking := postJSON(t, s, "/api/recommend", req)
			if blocking.Code != http.StatusOK {
				t.Fatalf("blocking status %d: %s", blocking.Code, blocking.Body.String())
			}
			blockingBody := string(bytes.TrimSuffix(blocking.Body.Bytes(), []byte("\n")))

			evs := getStream(t, s, target, nil)
			last := evs[len(evs)-1]
			if last.event != "done" {
				t.Fatalf("last event %q, want done", last.event)
			}
			if got, want := normalizeElapsed([]byte(last.data)), normalizeElapsed([]byte(blockingBody)); got != want {
				t.Fatalf("stream done payload differs from blocking response:\n%s\nvs\n%s", got, want)
			}

			var done recommendResponse
			if err := json.Unmarshal([]byte(last.data), &done); err != nil {
				t.Fatal(err)
			}
			if done.Operator != tc.op {
				t.Errorf("done operator = %q, want %q", done.Operator, tc.op)
			}
			if len(done.Views) == 0 {
				t.Fatal("done payload has no views")
			}
			for _, v := range done.Views {
				if v.ChartType == "" {
					t.Errorf("view %q carries no chartType", v.Title)
				}
			}
		})
	}
}
