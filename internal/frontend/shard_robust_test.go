package frontend

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seedb"
	"seedb/internal/cluster"
	"seedb/internal/engine"
)

func postRaw(s *Server, path, contentType string, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, body)
	req.Header.Set("Content-Type", contentType)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// shardFrame encodes an /api/shard/exec request: the sets (COUNT by
// region unless given) beside a fragment list.
func shardFrame(t *testing.T, req cluster.ShardRequest, frags ...cluster.ShardFragment) []byte {
	t.Helper()
	if req.Sets == nil {
		req.Sets = []cluster.ShardGroupingSet{{By: []string{"region"}, Aggs: []cluster.ShardAgg{{Func: "COUNT"}}}}
	}
	req.Fragments = frags
	b, err := req.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// opaquePred is a predicate type with no frame form.
type opaquePred struct{ engine.Predicate }

// shardFrag is one fragment of a request; hash may be empty.
func shardFrag(table string, lo, hi, sampleBase int, hash string) cluster.ShardFragment {
	return cluster.ShardFragment{Table: table, ContentHash: hash, SampleBase: sampleBase, RowLo: lo, RowHi: hi}
}

// sets is one grouping set of the given aggregates.
func sets(by []string, bins map[string]float64, aggs ...cluster.ShardAgg) []cluster.ShardGroupingSet {
	return []cluster.ShardGroupingSet{{By: by, BinWidths: bins, Aggs: aggs}}
}

// TestShardExecMalformedPayloads: hostile or buggy /api/shard/exec
// bodies are the sender's fault — every one answers 4xx with a typed
// body, none 5xx, none panics, none scans. (A 5xx would make a
// coordinator mark this worker unhealthy for what is a property of the
// request.) That covers frames naming what the table cannot serve,
// frames broken at the envelope or at any byte, and JSON — the wire
// before frames, answered 400 naming the format. A fragment this node
// cannot serve is not a malformed request: it is reported inside a 200
// and the rest of the exchange is served.
func TestShardExecMalformedPayloads(t *testing.T) {
	s := testServer(t)
	count := cluster.ShardRequest{}
	orders := func(lo, hi int) cluster.ShardFragment { return shardFrag("orders", lo, hi, 0, "") }
	var tooMany []cluster.ShardFragment
	for i := 0; i <= cluster.MaxExchangeFragments; i++ {
		tooMany = append(tooMany, shardFrag("orders", 0, 1, i, "")) // in order, disjoint: only the bound is wrong
	}
	valid := shardFrame(t, count, orders(0, 100))
	withSets := func(gs []cluster.ShardGroupingSet) cluster.ShardRequest { return cluster.ShardRequest{Sets: gs} }
	reframed := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mutate(b)
		return b
	}
	// The request up to (not including) its fragment count — the last
	// byte of a request without fragments — under a header that declares
	// exactly that.
	noFragments := shardFrame(t, count)
	noFragments = noFragments[:len(noFragments)-1]
	binary.LittleEndian.PutUint32(noFragments[6:10], uint32(len(noFragments)-10))
	const jsonCount = `"sets":[{"by":["region"],"aggs":[{"func":"COUNT"}]}]`
	cases := []struct {
		name   string
		body   []byte
		format bool // the answer must name the frame format
	}{
		{"negative range", shardFrame(t, count, orders(-5, 10)), false},
		{"inverted range", shardFrame(t, count, orders(900, 100)), false},
		{"empty range", shardFrame(t, count, orders(100, 100)), false},
		{"past-the-end range", shardFrame(t, count, orders(0, 99999999)), false},
		{"unknown column", shardFrame(t, withSets(sets([]string{"nope"}, nil, cluster.ShardAgg{Func: "COUNT"})), orders(0, 100)), false},
		{"unknown measure", shardFrame(t, withSets(sets([]string{"region"}, nil, cluster.ShardAgg{Func: "SUM", Column: "nope"})), orders(0, 100)), false},
		{"empty aggs", shardFrame(t, withSets(sets([]string{"region"}, nil)), orders(0, 100)), false},
		{"no sets", shardFrame(t, withSets([]cluster.ShardGroupingSet{}), orders(0, 100)), false},
		{"negative bin width", shardFrame(t, withSets(sets([]string{"sales"}, map[string]float64{"sales": -1}, cluster.ShardAgg{Func: "COUNT"})), orders(0, 100)), false},
		{"SUM of a string", shardFrame(t, withSets(sets([]string{"category"}, nil, cluster.ShardAgg{Func: "SUM", Column: "region"})), orders(0, 100)), false},
		{"unknown aggregate", shardFrame(t, withSets(sets([]string{"region"}, nil, cluster.ShardAgg{Func: "MEDIANISH"})), orders(0, 100)), false},
		// A predicate type of the sender's own encodes as a tag no reader accepts.
		{"unparseable predicate", shardFrame(t, cluster.ShardRequest{Preds: []engine.Predicate{opaquePred{}}, Where: 1}, orders(0, 100)), false},
		{"predicate index past the table", shardFrame(t, cluster.ShardRequest{Preds: []engine.Predicate{engine.IsNull("region")}, Where: 2}, orders(0, 100)), false},
		{"filter index past the table", shardFrame(t, withSets(sets([]string{"region"}, nil, cluster.ShardAgg{Func: "COUNT", Filter: 1})), orders(0, 100)), false},
		{"predicate on an unknown column", shardFrame(t, cluster.ShardRequest{Preds: []engine.Predicate{engine.IsNull("nope")}, Where: 1}, orders(0, 100)), false},
		{"empty fragment list", shardFrame(t, count), false},
		{"no fragment list", noFragments, false},
		{"duplicate fragment", shardFrame(t, count, orders(0, 100), orders(0, 100)), false},
		{"fragments out of row order", shardFrame(t, count, orders(1024, 2000), orders(0, 1024)), false},
		{"overlapping fragments", shardFrame(t, count, orders(0, 1024), orders(1000, 2000)), false},
		{"fragment list over the bound", shardFrame(t, count, tooMany...), false},
		{"wrong magic", reframed(func(b []byte) { b[0] = 'X' }), true},
		{"wrong version", reframed(func(b []byte) { b[4]++ }), false},
		{"response frame", reframed(func(b []byte) { b[5] = 'R' }), false},
		{"trailing bytes", append(shardFrame(t, count, orders(0, 100)), 0), false},
		{"pre-exchange shape", []byte(`{"table":"orders","rowLo":0,"rowHi":100,` + jsonCount + `}`), true},
		{"JSON exchange", []byte(`{"fragments":[{"table":"orders","rowLo":0,"rowHi":100}],` + jsonCount + `}`), true},
		{"truncated JSON", []byte(`{"fragments":[{"table":"orders","rowLo":0,"rowHi":1`), true},
		{"wrong JSON type", []byte(`{"fragments":[{"table":"orders","rowLo":"zero"}],` + jsonCount + `}`), true},
		{"not JSON", []byte(`SELECT 1`), true},
		{"empty body", nil, true},
	}
	refused := func(t *testing.T, body io.Reader, wantStatus int, format bool) {
		t.Helper()
		_, scansBefore, _ := s.db.Engine().Executor().Stats().Snapshot()
		w := postRaw(s, "/api/shard/exec", cluster.FrameContentType, body)
		if w.Code < 400 || w.Code > 499 || (wantStatus != 0 && w.Code != wantStatus) {
			t.Fatalf("status = %d, want 4xx (%d): %.300s", w.Code, wantStatus, w.Body.String())
		}
		var e map[string]string
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e["error"] == "" {
			t.Fatalf("error body is not typed JSON: %s", w.Body.String())
		}
		if format && !strings.Contains(e["error"], cluster.FrameContentType) {
			t.Fatalf("the refusal does not name the format it wants: %s", e["error"])
		}
		if _, scans, _ := s.db.Engine().Executor().Stats().Snapshot(); scans != scansBefore {
			t.Fatalf("a refused request scanned (%d -> %d table scans)", scansBefore, scans)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { refused(t, bytes.NewReader(tc.body), 0, tc.format) })
	}
	t.Run("frame truncated at every byte", func(t *testing.T) {
		for n := range len(valid) {
			refused(t, bytes.NewReader(valid[:n]), http.StatusBadRequest, false)
		}
	})
	t.Run("oversize body", func(t *testing.T) {
		refused(t, io.MultiReader(bytes.NewReader(valid), io.LimitReader(zeros{}, cluster.MaxWireBytes)), http.StatusRequestEntityTooLarge, false)
	})

	exec := func(t *testing.T, body []byte) cluster.ShardResponse {
		t.Helper()
		w := postRaw(s, "/api/shard/exec", cluster.FrameContentType, bytes.NewReader(body))
		if w.Code != http.StatusOK || w.Header().Get("Content-Type") != cluster.FrameContentType {
			t.Fatalf("status = %d (%s), want a 200 frame: %s", w.Code, w.Header().Get("Content-Type"), w.Body.String())
		}
		var resp cluster.ShardResponse
		if err := resp.UnmarshalBinary(w.Body.Bytes()); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// The valid request the cases were derived from does answer 200,
	// and two adjacent fragments come back as one run.
	if resp := exec(t, valid); len(resp.Runs) != 1 || len(resp.Failed) != 0 {
		t.Fatalf("control request: %+v", resp)
	}
	if resp := exec(t, shardFrame(t, count, orders(0, 1024), orders(1024, 2000))); len(resp.Runs) != 1 ||
		resp.Runs[0].Lo != 0 || resp.Runs[0].Hi != 2000 || len(resp.Runs[0].Partials) != 1 {
		t.Fatalf("adjacent fragments were not pre-merged into one run: %+v", resp)
	}

	tb, err := s.db.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	hash, err := tb.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		bad    cluster.ShardFragment
		status int
	}{
		{"unknown fragment among good ones", shardFrag("nope", 0, 100, 1024, ""), http.StatusNotFound},
		{"stale hash among good ones", shardFrag("orders", 0, 100, 1024, "deadbeef"), http.StatusConflict},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Positions: orders rows [0,1024), the bad fragment at
			// [1024,1124), orders rows [1124,2000) — so the good ones
			// are NOT adjacent and stay two runs.
			resp := exec(t, shardFrame(t, count, shardFrag("orders", 0, 1024, 0, hash), tc.bad, shardFrag("orders", 1124, 2000, 0, hash)))
			if len(resp.Failed) != 1 || resp.Failed[0].Fragment != 1 || resp.Failed[0].Status != tc.status || resp.Failed[0].Error == "" {
				t.Fatalf("want fragment 1 reported %d: %+v", tc.status, resp.Failed)
			}
			if got := resp.Failed[0].ContentHash; (tc.status == http.StatusConflict) != (got == hash) {
				t.Fatalf("a 409 (and only a 409) carries the worker's own hash, got %q", got)
			}
			if len(resp.Runs) != 2 || resp.Runs[0].Lo != 0 || resp.Runs[0].Hi != 1024 || resp.Runs[1].Lo != 1124 || resp.Runs[1].Hi != 2000 {
				t.Fatalf("the good fragments must be served as two runs: %+v", resp.Runs)
			}
		})
	}
	// Nothing servable is still an answer, not an error.
	if resp := exec(t, shardFrame(t, count, shardFrag("nope", 0, 100, 0, ""))); len(resp.Runs) != 0 || len(resp.Failed) != 1 || resp.Failed[0].Status != http.StatusNotFound {
		t.Fatalf("unknown fragment alone: %+v", resp)
	}
}

// endlessJSON is a syntactically promising body that never ends: a
// string value of n filler bytes.
func endlessJSON(n int64) io.Reader {
	return io.MultiReader(strings.NewReader(`{"table":"`), io.LimitReader(zeros{}, n), strings.NewReader(`"}`))
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	return len(p), nil
}

// TestClusterBodiesAreBounded: /api/shard/exec and /api/ingest refuse a
// body over cluster.MaxWireBytes with 413 instead of buffering it.
func TestClusterBodiesAreBounded(t *testing.T) {
	s := testServer(t)
	for _, path := range []string{"/api/shard/exec", "/api/ingest"} {
		w := postRaw(s, path, "application/json", endlessJSON(cluster.MaxWireBytes))
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d, want 413: %.200s", path, w.Code, w.Body.String())
		}
	}
}

// TestOversizedExchangeDoesNotPenaliseWorker: a shard response over
// the wire bound, and a worker's 413 for an oversized request, are
// both properties of the query: the range runs on the coordinator and
// the worker stays healthy.
func TestOversizedExchangeDoesNotPenaliseWorker(t *testing.T) {
	ctx := context.Background()
	for name, handler := range map[string]http.HandlerFunc{
		"oversized response": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			io.Copy(w, endlessJSON(cluster.MaxWireBytes))
		},
		"413": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"too large"}`, http.StatusRequestEntityTooLarge)
		},
	} {
		t.Run(name, func(t *testing.T) {
			inner := testServer(t)
			worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/api/shard/exec" {
					handler(w, r)
					return
				}
				inner.ServeHTTP(w, r)
			}))
			t.Cleanup(worker.Close)

			coord := testServer(t)
			b := coord.db.ShardRemote([]string{worker.URL}, time.Minute, seedb.ClusterConfig{Cooldown: time.Hour})
			w := postJSON(t, coord, "/api/recommend", recommendRequest{SQL: "SELECT * FROM orders WHERE category = 'Furniture'"})
			if w.Code != http.StatusOK {
				t.Fatalf("recommend: %d: %s", w.Code, w.Body.String())
			}
			c := b.Counters()
			if c.ShardCalls == 0 || c.Retries != 0 || c.Failovers == 0 {
				t.Fatalf("want unretried attempts that ran locally: %+v", c)
			}
			for _, st := range b.HealthCheck(ctx) {
				if !st.Healthy || st.Failures != 0 {
					t.Fatalf("worker penalised for an oversized exchange: %+v", st)
				}
			}
		})
	}
}

// failingDurable is a durability store whose every write fails.
type failingDurable struct{}

func (failingDurable) CheckpointTable(*engine.Table) error { return errors.New("injected: disk full") }
func (failingDurable) DropTable(string) error              { return errors.New("injected: disk full") }

// snapshotOf serializes rows [lo,hi) of the orders table as name (the
// whole table when name is "orders").
func snapshotOf(t *testing.T, s *Server, name string, lo, hi int) []byte {
	t.Helper()
	tb, err := s.db.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	if name != "orders" {
		if tb, err = tb.ExtractRange(name, lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := engine.WriteTableSnapshot(&buf, tb); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardSyncStatuses: /api/shard/sync answers 400 only for what is
// the coordinator's fault — a broken snapshot, one of another table, a
// placement off the grid — 413 for a snapshot over its bound and 500
// when this node cannot make a good snapshot durable, for a whole
// table and a placement alike.
func TestShardSyncStatuses(t *testing.T) {
	s := testServer(t)
	whole, p0 := snapshotOf(t, s, "orders", 0, 0), snapshotOf(t, s, "orders__p0", 0, 1024)
	sync := func(query string, body []byte) int {
		return postRaw(s, "/api/shard/sync?"+query, "application/octet-stream", bytes.NewReader(body)).Code
	}
	for _, tc := range []struct {
		query string
		body  []byte
		want  int
	}{
		{"table=orders", []byte("not a snapshot"), http.StatusBadRequest},
		{"table=sales", whole, http.StatusBadRequest},
		{"table=orders__p0&lo=1000", p0, http.StatusBadRequest},
		{"table=orders&lo=0", whole, http.StatusBadRequest},
		{"table=orders", whole, http.StatusOK},
		{"table=orders__p0&lo=0", p0, http.StatusOK},
	} {
		if got := sync(tc.query, tc.body); got != tc.want {
			t.Errorf("sync %s: status %d, want %d", tc.query, got, tc.want)
		}
	}

	// Over its bound: the store classifies the wrapped MaxBytesError
	// the way every cluster body is classified.
	if got := cluster.BodyStatus(fmt.Errorf("reading: %w", &http.MaxBytesError{Limit: 1})); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("a wrapped MaxBytesError classifies as %d, want 413", got)
	}
	_, status, err := s.db.Placements().Sync("orders", -1, http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(whole)), 64))
	if err == nil || status != http.StatusRequestEntityTooLarge {
		t.Fatalf("a snapshot over its bound: status %d (%v), want 413", status, err)
	}

	if err := s.db.Placements().SetDurable(failingDurable{}); err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"table=orders", "table=orders__p0&lo=0"} {
		body := whole
		if strings.Contains(query, "lo=") {
			body = p0
		}
		if got := sync(query, body); got != http.StatusInternalServerError {
			t.Errorf("sync %s with a failing checkpoint: status %d, want 500", query, got)
		}
	}
	if w := postRaw(s, "/api/shard/drop?table=orders__p0", "", nil); w.Code != http.StatusInternalServerError {
		t.Errorf("drop with a failing snapshot removal: status %d, want 500", w.Code)
	}
}
